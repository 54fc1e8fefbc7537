// Determinism contract of the parallel round scheduler (src/sched):
// for any worker count, the delivery trace — per-node receipt sequences,
// every metrics counter, the JSON report — is bit-identical to the
// single-threaded run. These suites pin that equality at the raw sim
// level (recording nodes, echo traffic, churn between rounds), at the
// scenario level (full builtin reports across thread counts), across
// mid-run scheduler switches (retired schedulers keep their worker pools
// alive under in-flight envelopes), and for the engine's versioned
// multi-topic convergence probe against its exhaustive reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/builtin.hpp"
#include "scenario/runner.hpp"
#include "sim/network.hpp"

namespace ssps::sim {
namespace {

struct Ping final : MsgBase<Ping> {
  int payload = 0;
  explicit Ping(int p) : payload(p) {}
  std::string_view name() const override { return "Ping"; }
};

/// Records receipts; forwards each ping (decremented) to a ring neighbor
/// while positive, so traffic cascades across shard boundaries for many
/// rounds. Timeouts emit too, exercising the sequential phase-C lane.
class Relay final : public Node {
 public:
  void handle(PooledMsg msg) override {
    auto* ping = msg_cast<Ping>(*msg);
    ASSERT_NE(ping, nullptr);
    received.push_back(ping->payload);
    if (ping->payload > 0) net().emit<Ping>(next, ping->payload - 1);
  }
  void timeout() override {
    ++timeouts;
    if (chatty && timeouts % 3 == 0) net().emit<Ping>(next, 2);
  }

  std::vector<int> received;
  int timeouts = 0;
  NodeId next = NodeId::null();
  bool chatty = false;
};

struct SimTrace {
  std::vector<std::vector<int>> received;  // per surviving node
  std::vector<int> timeouts;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::size_t pending = 0;
  std::vector<std::pair<std::string, std::uint64_t>> by_label;
  std::vector<std::uint64_t> received_by;  // Metrics::received_by, per alive node

  bool operator==(const SimTrace&) const = default;
};

/// One deterministic workload: a relay ring with cascading pings, crashes
/// and a spawn between rounds (the only place the parallel scheduler
/// allows them), and sends to dead nodes (the swallow path runs on
/// workers).
SimTrace run_sim(unsigned threads) {
  constexpr int kNodes = 23;  // not a multiple of any worker count
  Network net(99);
  net.set_threads(threads);
  std::vector<NodeId> ids;
  for (int i = 0; i < kNodes; ++i) ids.push_back(net.spawn<Relay>());
  for (int i = 0; i < kNodes; ++i) {
    auto& relay = net.node_as<Relay>(ids[i]);
    relay.next = ids[(i + 1) % kNodes];
    relay.chatty = i % 4 == 0;
  }
  for (int i = 0; i < kNodes; ++i) net.emit<Ping>(ids[i], 5 + i % 7);
  net.run_units(6);
  net.crash(ids[3]);
  net.crash(ids[17]);  // its pending messages drop; senders keep sending
  net.run_units(6);
  const NodeId late = net.spawn<Relay>();
  net.node_as<Relay>(late).next = ids[0];
  net.emit<Ping>(late, 9);
  net.run_units(8);

  SimTrace trace;
  for (NodeId id : net.alive_ids()) {
    auto& relay = net.node_as<Relay>(id);
    trace.received.push_back(relay.received);
    trace.timeouts.push_back(relay.timeouts);
  }
  Metrics& metrics = net.metrics();
  trace.sent = metrics.total_sent();
  trace.delivered = metrics.total_delivered();
  trace.bytes = metrics.total_bytes();
  trace.pending = net.pending_messages();
  for (const auto& [label, counter] : metrics.by_label()) {
    trace.by_label.emplace_back(label, counter.count);
  }
  for (NodeId id : net.alive_ids()) trace.received_by.push_back(metrics.received_by(id));
  return trace;
}

TEST(ParallelScheduler, SimTraceBitIdenticalAcrossWorkerCounts) {
  const SimTrace serial = run_sim(1);
  EXPECT_GT(serial.delivered, 0u);
  for (unsigned threads : {2u, 3u, 4u, 7u}) {
    EXPECT_EQ(serial, run_sim(threads)) << threads << " workers";
  }
}

TEST(ParallelScheduler, MidRunSwitchesPreserveTheTrace) {
  // serial -> 3 workers -> serial, switched with messages in flight: the
  // retired schedulers' worker pools stay alive under their envelopes,
  // and the trace never forks from the all-serial twin.
  auto run_switching = [](bool switching) {
    Network net(7);
    std::vector<NodeId> ids;
    for (int i = 0; i < 11; ++i) ids.push_back(net.spawn<Relay>());
    for (int i = 0; i < 11; ++i) {
      net.node_as<Relay>(ids[i]).next = ids[(i + 1) % 11];
    }
    for (int i = 0; i < 11; ++i) net.emit<Ping>(ids[i], 20);
    net.run_units(5);
    if (switching) net.set_threads(3);
    net.run_units(5);
    if (switching) net.set_threads(1);
    net.run_units(5);
    std::vector<std::vector<int>> received;
    for (NodeId id : net.alive_ids()) {
      received.push_back(net.node_as<Relay>(id).received);
    }
    return std::make_pair(received, net.metrics().total_delivered());
  };
  EXPECT_EQ(run_switching(false), run_switching(true));
}

TEST(ParallelScheduler, WorkerPoolsDrainAndRecycle) {
  Network net(5);
  net.set_threads(4);
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(net.spawn<Relay>());
  for (int i = 0; i < 8; ++i) net.node_as<Relay>(ids[i]).next = ids[(i + 1) % 8];
  for (int round = 0; round < 30; ++round) {
    for (NodeId id : ids) net.emit<Ping>(id, 1);
    net.run_unit();
  }
  // Everything sent was delivered or is still pending; drain fully.
  while (net.pending_messages() > 0) net.run_unit();
  Metrics& metrics = net.metrics();
  EXPECT_EQ(metrics.total_sent(), metrics.total_delivered());
  // The main pool holds no live messages once channels are empty (worker
  // pools likewise — the Network destructor's leak sweep, which runs
  // under the ASan CI job, would flag any slot this misses).
  EXPECT_EQ(net.pool().live(), 0u);
}

}  // namespace
}  // namespace ssps::sim

namespace ssps::scenario {
namespace {

/// Removes the "threads" header line — the one field that legitimately
/// differs — so reports from different worker counts can be compared
/// byte-for-byte (the CTest twin-run script does the same with grep -v).
std::string strip_threads_line(const std::string& json) {
  const std::size_t at = json.find("\"threads\":");
  if (at == std::string::npos) return json;
  const std::size_t begin = json.rfind('\n', at);
  const std::size_t end = json.find('\n', at);
  std::string out = json;
  out.erase(begin, end - begin);
  return out;
}

std::string report_json(const std::string& builtin, unsigned threads,
                        bool scrambled) {
  ScenarioSpec spec = builtin_scenario(builtin, /*seed=*/11, /*nodes=*/16);
  if (scrambled) spec = scrambled_variant(std::move(spec));
  spec.exec.threads = threads;
  ScenarioRunner runner(std::move(spec));
  return runner.run().to_json().dump(2);
}

TEST(ParallelScheduler, BuiltinReportsBitIdenticalAcrossWorkerCounts) {
  // One single-topic and one multi-topic builtin, plain and scrambled;
  // the shell harness (tests/determinism/thread_determinism.sh) covers
  // the full builtin matrix.
  for (const char* builtin : {"churn-wave", "zipf-topics"}) {
    for (bool scrambled : {false, true}) {
      const std::string serial =
          strip_threads_line(report_json(builtin, 1, scrambled));
      for (unsigned threads : {2u, 4u}) {
        EXPECT_EQ(serial, strip_threads_line(report_json(builtin, threads, scrambled)))
            << builtin << (scrambled ? " scrambled " : " ") << threads
            << " workers";
      }
    }
  }
}

TEST(ParallelScheduler, TelemetrySectionsPopulatedAndThreadInvariant) {
  // The byte-equality tests above would pass vacuously if the telemetry
  // sections were silently empty; pin that they carry real data and that
  // every serialized field matches across worker counts.
  auto run = [](const char* builtin, unsigned threads) {
    ScenarioSpec spec = builtin_scenario(builtin, /*seed=*/11, /*nodes=*/16);
    spec.exec.threads = threads;
    ScenarioRunner runner(std::move(spec));
    return runner.run();  // copies the report out of the dying runner
  };

  const ScenarioReport serial = run("churn-wave", 1);
  EXPECT_GT(serial.latency.global.count, 0u);
  EXPECT_GE(serial.latency.global.p999, serial.latency.global.p50);
  EXPECT_GE(serial.latency.global.max, serial.latency.global.p999);
  ASSERT_TRUE(serial.timeseries.has_value());
  ASSERT_FALSE(serial.timeseries->samples.empty());
  EXPECT_GT(serial.timeseries->samples.front().alive, 0u);

  const ScenarioReport parallel = run("churn-wave", 4);
  EXPECT_EQ(serial.latency.global.count, parallel.latency.global.count);
  EXPECT_EQ(serial.latency.global.p50, parallel.latency.global.p50);
  EXPECT_EQ(serial.latency.global.p99, parallel.latency.global.p99);
  EXPECT_EQ(serial.latency.global.p999, parallel.latency.global.p999);
  EXPECT_EQ(serial.latency.global.max, parallel.latency.global.max);
  ASSERT_TRUE(parallel.timeseries.has_value());
  ASSERT_EQ(serial.timeseries->samples.size(), parallel.timeseries->samples.size());
  EXPECT_EQ(serial.timeseries->dropped, parallel.timeseries->dropped);
  for (std::size_t i = 0; i < serial.timeseries->samples.size(); ++i) {
    const auto& a = serial.timeseries->samples[i];
    const auto& b = parallel.timeseries->samples[i];
    EXPECT_EQ(a.round, b.round) << i;
    EXPECT_EQ(a.delivered, b.delivered) << i;
    EXPECT_EQ(a.timeouts, b.timeouts) << i;
    EXPECT_EQ(a.in_flight, b.in_flight) << i;
    EXPECT_EQ(a.alive, b.alive) << i;
    EXPECT_EQ(a.nonconforming, b.nonconforming) << i;
  }

  // Multi-topic runs additionally carry per-topic latency rows.
  const ScenarioReport multi = run("zipf-topics", 2);
  EXPECT_GT(multi.latency.global.count, 0u);
  EXPECT_FALSE(multi.latency.per_topic.empty());
}

TEST(ParallelScheduler, ThreadsRecordedInReportHeader) {
  ScenarioSpec spec = builtin_scenario("steady", 3, 12);
  spec.exec.threads = 2;
  ScenarioRunner runner(std::move(spec));
  const std::string json = runner.run().to_json().dump(2);
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
}

TEST(ConvergedProbe, AgreesWithReferenceAlongTrajectories) {
  // Drive a multi-topic deployment through joins, churn, supervisor
  // changes and publishing, comparing the versioned per-topic probe with
  // the exhaustive reference on every round of every convergence wait.
  ScenarioSpec spec;
  spec.name = "probe-differential";
  spec.seed = 13;
  spec.mode = Mode::kMultiTopic;
  spec.supervisors = 2;
  spec.topics = 6;
  spec.topics_per_client = 2;
  spec.nodes = 14;
  Phase join;
  join.name = "join";
  join.churn.joins = 14;
  spec.phases.push_back(join);
  Phase churn;
  churn.name = "churn";
  churn.churn.crashes = 2;
  churn.churn.leaves = 2;
  churn.churn.joins = 3;
  churn.add_supervisors = 1;
  churn.publish.count = 6;
  spec.phases.push_back(churn);
  Phase flash;
  flash.name = "flash";
  flash.flash_crowd_topic = TopicId{2};
  flash.publish.count = 4;
  spec.phases.push_back(flash);

  ScenarioRunner runner(std::move(spec));
  std::size_t evaluations = 0;
  for (std::size_t i = 0; i < runner.spec().phases.size(); ++i) {
    runner.run_phase(i);
    const auto settled = runner.net().run_until(
        [&] {
          ++evaluations;
          const bool probe = runner.converged();
          EXPECT_EQ(probe, runner.converged_reference());
          return probe;
        },
        4000);
    EXPECT_TRUE(settled.has_value()) << "phase " << i << " did not converge";
  }
  // The wait above re-evaluates the probe every active round; make sure
  // the differential actually exercised a trajectory, not one call.
  EXPECT_GT(evaluations, 10u);
}

TEST(ConvergedProbe, CacheSurvivesTopicRehomingUnderParallelRounds) {
  // Supervisor crash forces topic rehoming; run it all under the
  // parallel scheduler and keep the probe honest against the reference.
  ScenarioSpec spec;
  spec.name = "probe-rehome";
  spec.seed = 21;
  spec.mode = Mode::kMultiTopic;
  spec.supervisors = 3;
  spec.topics = 5;
  spec.topics_per_client = 2;
  spec.nodes = 10;
  spec.exec.threads = 3;
  Phase join;
  join.name = "join";
  join.churn.joins = 10;
  join.publish.count = 5;
  spec.phases.push_back(join);
  Phase crash;
  crash.name = "crash-supervisor";
  crash.crash_supervisors = 1;
  spec.phases.push_back(crash);

  ScenarioRunner runner(std::move(spec));
  for (std::size_t i = 0; i < runner.spec().phases.size(); ++i) {
    runner.run_phase(i);
    const auto settled = runner.net().run_until(
        [&] {
          const bool probe = runner.converged();
          EXPECT_EQ(probe, runner.converged_reference());
          return probe;
        },
        4000);
    EXPECT_TRUE(settled.has_value()) << "phase " << i << " did not converge";
  }
}

}  // namespace
}  // namespace ssps::scenario
