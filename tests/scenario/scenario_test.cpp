// Scenario engine: deterministic replay, built-in scenario health, and
// supervisor-group arc rebalancing under churn.
#include <gtest/gtest.h>

#include "scenario/builtin.hpp"
#include "scenario/runner.hpp"
#include "sched/async.hpp"
#include "sched/timed.hpp"

namespace ssps::scenario {
namespace {

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(Json, ObjectKeysAreSorted) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  j["mid"] = 3;
  EXPECT_EQ(j.dump(0), R"({"alpha":2,"mid":3,"zeta":1})");
}

TEST(Json, EscapesStringsAndFormatsNumbers) {
  Json j = Json::object();
  j["s"] = "a\"b\\c\nd";
  j["neg"] = std::int64_t{-5};
  j["big"] = std::uint64_t{18446744073709551615ULL};
  j["f"] = 0.25;
  EXPECT_EQ(j.dump(0),
            "{\"big\":18446744073709551615,\"f\":0.250000,"
            "\"neg\":-5,\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(Json, ArraysAndNesting) {
  Json j = Json::array();
  j.push_back(1);
  Json inner = Json::object();
  inner["k"] = true;
  j.push_back(inner);
  j.push_back(Json());
  EXPECT_EQ(j.dump(0), R"([1,{"k":true},null])");
  EXPECT_EQ(j.size(), 3u);
}

// ---------------------------------------------------------------------------
// Deterministic replay: same spec + seed => identical metrics JSON
// ---------------------------------------------------------------------------

std::string run_builtin(const std::string& name, std::uint64_t seed,
                        std::size_t nodes, bool* ok = nullptr) {
  ScenarioRunner runner(builtin_scenario(name, seed, nodes));
  const ScenarioReport& report = runner.run();
  if (ok != nullptr) *ok = report.ok;
  return report.to_json().dump(2);
}

TEST(ScenarioReplay, EveryBuiltinIsBitDeterministic) {
  for (const std::string& name : builtin_names()) {
    bool ok_first = false;
    const std::string first = run_builtin(name, 11, 12, &ok_first);
    const std::string second = run_builtin(name, 11, 12);
    EXPECT_EQ(first, second) << "scenario " << name << " not deterministic";
    EXPECT_TRUE(ok_first) << "scenario " << name << " did not converge";
  }
}

TEST(ScenarioReplay, DifferentSeedsProduceDifferentTraffic) {
  const std::string a = run_builtin("steady", 1, 16);
  const std::string b = run_builtin("steady", 2, 16);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Built-in scenario health
// ---------------------------------------------------------------------------

TEST(Builtins, NamesRoundTrip) {
  EXPECT_EQ(builtin_names().size(), 11u);  // 5 classic + 3 timed + 3 scale-*
  for (const std::string& name : builtin_names()) {
    EXPECT_TRUE(is_builtin(name));
    const ScenarioSpec spec = builtin_scenario(name, 3, 10);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.phases.empty());
  }
  EXPECT_FALSE(is_builtin("no-such-scenario"));
}

TEST(Builtins, SteadyReportCoversTheContract) {
  ScenarioRunner runner(builtin_scenario("steady", 5, 12));
  const ScenarioReport& report = runner.run();
  ASSERT_TRUE(report.ok);
  ASSERT_EQ(report.phases.size(), 3u);
  const PhaseReport& bootstrap = report.phases[0];
  EXPECT_TRUE(bootstrap.converged);
  ASSERT_TRUE(bootstrap.convergence_rounds.has_value());
  EXPECT_GT(*bootstrap.convergence_rounds, 0u);
  EXPECT_GT(bootstrap.messages, 0u);
  EXPECT_GT(bootstrap.bytes, 0u);
  ASSERT_EQ(bootstrap.supervisor_load.size(), 1u);
  EXPECT_GT(bootstrap.supervisor_load[0].received, 0u);
  EXPECT_EQ(bootstrap.supervisor_load[0].database, 12u);
  // The publish burst delivered everything everywhere.
  const PhaseReport& burst = report.phases[2];
  EXPECT_TRUE(burst.converged);
  EXPECT_GT(burst.publications, 0u);
  EXPECT_EQ(runner.single().distinct_publications(), burst.publications);
  EXPECT_TRUE(runner.single().topology_legit());
}

TEST(Builtins, ZipfWorkloadSkewsTowardHotTopics) {
  ScenarioRunner runner(builtin_scenario("zipf-topics", 9, 16));
  const ScenarioReport& report = runner.run();
  ASSERT_TRUE(report.ok);
  // Publication mass concentrates: with s = 1.2 the hottest topic must
  // clearly beat the per-topic average.
  std::size_t hottest = 0;
  std::size_t total = 0;
  std::size_t populated = 0;
  for (TopicId t = 1; t <= static_cast<TopicId>(runner.spec().topics); ++t) {
    std::size_t count = 0;
    for (sim::NodeId m : runner.topic_members(t)) {
      auto& node = runner.net().node_as<pubsub::MultiTopicNode>(m);
      count = std::max<std::size_t>(count, node.pubsub(t).trie().size());
    }
    hottest = std::max(hottest, count);
    total += count;
    populated += runner.topic_members(t).empty() ? 0 : 1;
  }
  ASSERT_GT(populated, 0u);
  EXPECT_GE(hottest * populated, 2 * total) << "no Zipf skew visible";
}

// ---------------------------------------------------------------------------
// SupervisorGroup arc rebalancing under churn-wave
// ---------------------------------------------------------------------------

TEST(ChurnWave, SupervisorArcsRebalanceAndSystemRecovers) {
  ScenarioRunner runner(builtin_scenario("churn-wave", 21, 16));
  const ScenarioReport& report = runner.run();
  ASSERT_TRUE(report.ok) << report.to_json().dump(2);
  ASSERT_EQ(report.phases.size(), 6u);

  const PhaseReport& bootstrap = report.phases[0];
  const PhaseReport& sup_crash = report.phases[3];
  const PhaseReport& sup_join = report.phases[4];

  // Group size: 3 supervisors -> 2 after the crash -> 3 after the join.
  EXPECT_EQ(bootstrap.supervisor_load.size(), 3u);
  EXPECT_EQ(sup_crash.supervisor_load.size(), 2u);
  EXPECT_EQ(sup_join.supervisor_load.size(), 3u);

  // Arc shares always cover the full hash ring, so losing a member grows
  // the survivors' arcs (consistent-hashing rebalancing).
  auto share_sum = [](const PhaseReport& p) {
    double sum = 0.0;
    for (const SupervisorLoad& s : p.supervisor_load) sum += s.arc_share;
    return sum;
  };
  EXPECT_NEAR(share_sum(bootstrap), 1.0, 1e-9);
  EXPECT_NEAR(share_sum(sup_crash), 1.0, 1e-9);
  EXPECT_NEAR(share_sum(sup_join), 1.0, 1e-9);
  for (const SupervisorLoad& survivor : sup_crash.supervisor_load) {
    for (const SupervisorLoad& before : bootstrap.supervisor_load) {
      if (before.node == survivor.node) {
        EXPECT_GT(survivor.arc_share, before.arc_share - 1e-9);
      }
    }
  }

  // The crashed supervisor's topics were rehomed; the joining supervisor
  // stole arcs back.
  EXPECT_GT(sup_crash.moved_topics, 0u);
  EXPECT_GT(sup_join.moved_topics, 0u);

  // Every phase converged: databases complete and consistent, labels
  // agreed, publications intact after every wave.
  for (const PhaseReport& p : report.phases) {
    EXPECT_TRUE(p.converged) << "phase " << p.name;
  }
  // Rehomed topics kept their publication history (clients re-add their
  // local stores at the new owner).
  EXPECT_GE(report.phases.back().publications, report.phases[1].publications);
}

TEST(ChaosChurn, FaultCountersAndRecoveriesSurfaceInTheReport) {
  ScenarioRunner runner(builtin_scenario("chaos-churn", 7, 16));
  const ScenarioReport& report = runner.run();
  ASSERT_TRUE(report.ok) << report.to_json().dump(2);
  ASSERT_TRUE(report.oracle_ok) << report.to_json().dump(2);
  ASSERT_EQ(report.phases.size(), 5u);

  // The corrupting links damaged frames, and the codec rejected the bulk
  // of them; both counters flow into the report.
  std::uint64_t corrupted = 0;
  std::uint64_t rejected = 0;
  for (const PhaseReport& p : report.phases) {
    corrupted += p.corrupted;
    rejected += p.rejected;
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(rejected, 0u);

  // The recover phase restarted the crash wave's victims from snapshots.
  const PhaseReport& recover = report.phases[3];
  EXPECT_EQ(recover.name, "recover");
  EXPECT_GT(recover.recovered, 0u);
  EXPECT_LE(recover.recovered_clean, recover.recovered);

  // The counters reach the JSON artifact (the chaos campaign's contract).
  const std::string json = report.to_json().dump(0);
  EXPECT_NE(json.find("\"corrupted\""), std::string::npos);
  EXPECT_NE(json.find("\"rejected\""), std::string::npos);
  EXPECT_NE(json.find("\"recovered\""), std::string::npos);
}

TEST(ChaosChurn, ReportsWithoutFaultsOmitTheFaultFields) {
  // Pre-existing scenarios must stay byte-identical: the new report
  // fields only appear when their counters are nonzero.
  ScenarioRunner runner(builtin_scenario("steady", 5, 10));
  const std::string json = runner.run().to_json().dump(0);
  EXPECT_EQ(json.find("\"corrupted\""), std::string::npos);
  EXPECT_EQ(json.find("\"rejected\""), std::string::npos);
  EXPECT_EQ(json.find("\"recovered\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Oracle integration: summaries in the report, scrambled-start variants
// ---------------------------------------------------------------------------

TEST(OracleIntegration, SummariesAppearInTheJsonReport) {
  ScenarioSpec spec = builtin_scenario("steady", 3, 10);
  spec.oracle = true;
  ScenarioRunner runner(std::move(spec));
  const ScenarioReport& report = runner.run();
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.oracle_ok);
  for (const PhaseReport& p : report.phases) {
    ASSERT_TRUE(p.oracle.has_value()) << p.name;
    EXPECT_EQ(p.oracle->violations, 0u) << p.name;
    EXPECT_GT(p.oracle->checked_nodes, 0u) << p.name;
  }
  const std::string json = report.to_json().dump(0);
  EXPECT_NE(json.find("\"oracle\""), std::string::npos);
  EXPECT_NE(json.find("\"oracle_ok\":true"), std::string::npos);
}

TEST(OracleIntegration, ScrambledVariantIsBitDeterministic) {
  auto run_once = [] {
    ScenarioRunner runner(scrambled_variant(builtin_scenario("partition-drill", 11, 10)));
    return runner.run().to_json().dump(2);
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.find("\"name\": \"scramble\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Custom specs: the engine is not limited to the builtins
// ---------------------------------------------------------------------------

TEST(CustomSpec, SingleTopicChurnConverges) {
  ScenarioSpec spec;
  spec.name = "custom-churn";
  spec.seed = 3;
  spec.nodes = 10;
  spec.mode = Mode::kSingleTopic;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = 10;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase wave;
  wave.name = "wave";
  wave.churn.joins = 3;
  wave.churn.leaves = 2;
  wave.churn.crashes = 2;
  wave.converge = true;
  spec.phases.push_back(wave);

  ScenarioRunner runner(spec);
  const ScenarioReport& report = runner.run();
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(runner.single().active_ids().size(), 9u);  // 10 + 3 - 2 - 2
  EXPECT_TRUE(runner.single().topology_legit());
}

TEST(CustomSpec, AsyncTimeseriesAndLatencyUseTheStepClock) {
  // Regression: async runs used to emit an always-empty timeseries ring
  // and latency figures stamped with the (never-advancing) round counter.
  // They now sample every AsyncConfig::probe_stride steps and measure on
  // the step clock, and the report says so.
  ScenarioSpec spec;
  spec.name = "custom-async-probe";
  spec.seed = 17;
  spec.nodes = 8;
  spec.mode = Mode::kSingleTopic;
  spec.exec.scheduler = Scheduler::kAsync;
  spec.timeseries_capacity = 64;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = 8;
  bootstrap.converge = true;
  bootstrap.max_rounds = 5000;
  spec.phases.push_back(bootstrap);

  Phase pubs;
  pubs.name = "publish";
  pubs.publish.count = 4;
  pubs.converge = true;
  pubs.max_rounds = 5000;
  spec.phases.push_back(pubs);

  ScenarioRunner runner(spec);
  const ScenarioReport& report = runner.run();
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.clock, "steps");
  EXPECT_EQ(report.latency.unit, "steps");
  ASSERT_TRUE(report.timeseries.has_value());
  EXPECT_EQ(report.timeseries->unit, "steps");
  ASSERT_FALSE(report.timeseries->samples.empty());
  // Samples tick on the step clock: strictly increasing multiples of the
  // probe stride (the round counter would sit at a handful of rounds).
  const auto& samples = report.timeseries->samples;
  const sim::Step stride = sched::AsyncConfig{}.probe_stride;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(samples[i - 1].round, samples[i].round);
    }
    EXPECT_EQ(samples[i].round % stride, 0u);
  }
  EXPECT_GE(samples.back().round, 2 * stride);
  // Latency percentiles are step-denominated: a publish needs many steps
  // to reach every subscriber.
  EXPECT_GT(report.latency.global.count, 0u);
  EXPECT_GT(report.latency.global.p50, 0u);
}

TEST(TimedScheduler, DefaultProfileMatchesRoundReports) {
  // The in-process face of tests/determinism/timed_equivalence.sh: with
  // the default link profile the timed engine's report is byte-identical
  // to the round scheduler's minus the clock/unit labels.
  auto strip_clock_lines = [](const std::string& text) {
    std::string out;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      const std::string line = text.substr(start, end - start);
      if (line.find("\"clock\":") == std::string::npos &&
          line.find("\"unit\":") == std::string::npos) {
        out += line;
        out += '\n';
      }
      start = end + 1;
    }
    return out;
  };
  for (const char* name : {"steady", "churn-wave"}) {
    ScenarioSpec spec = builtin_scenario(name, 11, 12);
    ScenarioRunner rounds(spec);
    spec.exec.scheduler = Scheduler::kTimed;
    ScenarioRunner timed(spec);
    const std::string a = rounds.run().to_json().dump(2);
    const std::string b = timed.run().to_json().dump(2);
    EXPECT_NE(a, b) << name << ": clock labels should differ";
    EXPECT_EQ(strip_clock_lines(a), strip_clock_lines(b)) << name;
  }
}

TEST(TimedScheduler, LossyScrambledRecoveryAt64Nodes) {
  // The acceptance drill: a 64-node deployment started from an arbitrary
  // scrambled state recovers to an oracle-certified legal state while
  // every link drops 5% of traffic, and the report's latency percentiles
  // read in virtual seconds.
  ScenarioSpec spec = scrambled_variant(builtin_scenario("lossy-churn", 23, 64));
  ScenarioRunner runner(std::move(spec));
  const ScenarioReport& report = runner.run();
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.oracle_ok);
  EXPECT_EQ(report.clock, "virtual-seconds");
  EXPECT_EQ(report.latency.unit, "virtual-seconds");
  EXPECT_GT(report.latency.global.count, 0u);
  // The link layer really dropped traffic on the way.
  ASSERT_NE(runner.timed(), nullptr);
  EXPECT_GT(runner.timed()->dropped(), 0u);
}

TEST(CustomSpec, AsyncSchedulerPhasesAreDeterministic) {
  ScenarioSpec spec;
  spec.name = "custom-async";
  spec.seed = 13;
  spec.nodes = 6;
  spec.mode = Mode::kSingleTopic;
  spec.exec.scheduler = Scheduler::kAsync;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = 6;
  bootstrap.converge = true;
  bootstrap.max_rounds = 5000;
  spec.phases.push_back(bootstrap);

  auto run_once = [&] {
    ScenarioRunner runner(spec);
    return runner.run().to_json().dump(0);
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  ScenarioRunner runner(spec);
  EXPECT_TRUE(runner.run().ok);
}

}  // namespace
}  // namespace ssps::scenario
