// Experiments E4/E5/E11/E12 — Theorems 8 & 13: convergence from adversarial
// initial states (chaos, wiped databases, split-brain, unannounced crashes,
// fully scrambled state), the closure window after legitimacy, and the
// label-correction ablation (Lemma 4's extension of BuildRing).
//
// The E4 and E12 series run through the scenario engine: each initial-state
// class is a two-phase ScenarioSpec (bootstrap to legitimacy, corrupt +
// re-converge) and the numbers are read off the phase reports, which also
// land in BENCH_convergence.json via the engine's report writer.
#include <cmath>

#include "bench_common.hpp"
#include "core/chaos.hpp"
#include "core/system.hpp"
#include "scenario/builtin.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace ssps;
using namespace ssps::core;

using ssps::bench::now_seconds;

struct Run {
  std::size_t rounds = 0;
  double msgs_per_node_round = 0;
  double wall_secs = 0;
  bool ok = false;
};

/// Chaos knobs for one named initial-state class ("chaos", "wipe",
/// "labels-only", "edges-only"); nullopt for classes that are not
/// ChaosOptions-shaped ("cold", "splitbrain", "crash", "scramble").
std::optional<ChaosOptions> chaos_for(const std::string& klass, std::uint64_t seed) {
  ChaosOptions chaos;
  chaos.seed = seed * 3 + 1;
  if (klass == "chaos") return chaos;
  if (klass == "wipe") {
    chaos.wipe_database = true;
    return chaos;
  }
  if (klass == "labels-only") {
    // E12 ablation input: correct edges, corrupted labels everywhere —
    // isolates the extended BuildRing label-correction machinery.
    chaos.clear_label_pct = 0;
    chaos.random_label_pct = 100;
    chaos.scramble_edges_pct = 0;
    chaos.bogus_shortcut_pct = 0;
    chaos.corrupt_database = false;
    chaos.junk_messages = 0;
    return chaos;
  }
  if (klass == "edges-only") {
    chaos.clear_label_pct = 0;
    chaos.random_label_pct = 0;
    chaos.scramble_edges_pct = 100;
    chaos.bogus_shortcut_pct = 0;
    chaos.corrupt_database = false;
    chaos.junk_messages = 0;
    return chaos;
  }
  return std::nullopt;
}

/// The scenario for one (class, n, seed) cell: a cold start measures its
/// bootstrap phase; every other class bootstraps to legitimacy first and
/// measures the corrupt-and-recover phase. "crash" is E11 (§3.3): a quarter
/// of the ring fail-stops unannounced and the survivors re-stabilize to
/// SR(n − f). "scramble" is the Definition 1 adversary: every protocol
/// variable rebuilt at random, with recovery certified by the full
/// legal-state oracle.
scenario::ScenarioSpec class_scenario(const std::string& klass, std::size_t n,
                                      std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "convergence-" + klass;
  spec.seed = seed;
  spec.nodes = n;
  spec.mode = scenario::Mode::kSingleTopic;

  scenario::Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = n;
  bootstrap.converge = true;
  bootstrap.max_rounds = klass == "cold" ? 20000 : 5000;
  spec.phases.push_back(bootstrap);
  if (klass == "cold") return spec;

  scenario::Phase corrupt;
  corrupt.name = "corrupt-and-recover";
  corrupt.chaos = chaos_for(klass, seed);
  corrupt.split_brain = klass == "splitbrain";
  if (klass == "crash") corrupt.churn.crashes = n / 4;
  if (klass == "scramble") {
    corrupt.scramble = oracle::ScrambleOptions{.seed = seed * 977 + 13};
    spec.oracle = true;
  }
  corrupt.converge = true;
  corrupt.max_rounds = 20000;
  spec.phases.push_back(corrupt);
  return spec;
}

Run run_class(const std::string& klass, std::size_t n, std::uint64_t seed) {
  const double t0 = now_seconds();
  scenario::ScenarioRunner runner(class_scenario(klass, n, seed));
  const scenario::ScenarioReport& report = runner.run();
  const double wall = now_seconds() - t0;
  if (!report.ok) return {};
  const scenario::PhaseReport& measured = report.phases.back();
  Run out;
  out.ok = true;
  out.wall_secs = wall;
  out.rounds = measured.convergence_rounds.value_or(0);
  out.msgs_per_node_round =
      out.rounds == 0 ? 0.0
                      : static_cast<double>(measured.messages) /
                            static_cast<double>(out.rounds) / static_cast<double>(n + 1);
  return out;
}

void print_experiment() {
  scenario::Json series = scenario::Json::array();
  {
    Table table({"class", "n", "rounds to legit", "msgs/node/round"});
    for (const char* klass :
         {"cold", "chaos", "wipe", "splitbrain", "crash", "scramble"}) {
      for (std::size_t n : {16u, 64u, 256u}) {
        // Median-ish: take the middle of three seeds by rounds.
        std::vector<Run> runs;
        for (std::uint64_t s = 1; s <= 3; ++s) runs.push_back(run_class(klass, n, s * 17 + n));
        std::sort(runs.begin(), runs.end(),
                  [](const Run& a, const Run& b) { return a.rounds < b.rounds; });
        const Run& mid = runs[1];
        table.add_row({klass, Table::num(static_cast<std::uint64_t>(n)),
                       mid.ok ? Table::num(static_cast<std::uint64_t>(mid.rounds))
                              : std::string("DNF"),
                       Table::num(mid.msgs_per_node_round, 2)});
        scenario::Json row = scenario::Json::object();
        row["class"] = klass;
        row["n"] = static_cast<std::uint64_t>(n);
        row["scheduler"] = "rounds";
        row["ok"] = mid.ok;
        row["rounds"] = static_cast<std::uint64_t>(mid.rounds);
        row["msgs_per_node_round"] = mid.msgs_per_node_round;
        series.push_back(std::move(row));
      }
    }
    table.print(
        "E4 / Theorem 8 — convergence rounds by initial-state class "
        "(expect: cold ~log n; corrupted classes grow mildly with n)");
  }
  {
    // Scale curve: cold-start convergence rounds vs log2 n, up to
    // n = 16384 — the O(log n) claim of Theorem 8 measured at the
    // populations the incremental legitimacy probe opens up (the
    // convergence wait is O(changed nodes) per round, so the wait no
    // longer dominates the protocol it observes). coldstart_secs is
    // wall-clock and deliberately NOT a gated metric; the deterministic
    // rounds are.
    Table table(
        {"n", "log2 n", "rounds to legit", "rounds / log2 n", "cold-start s"});
    scenario::Json curve = scenario::Json::array();
    for (std::size_t n : {64u, 256u, 1024u, 4096u, 16384u}) {
      std::vector<Run> runs;
      for (std::uint64_t s = 1; s <= 3; ++s) {
        runs.push_back(run_class("cold", n, s * 29 + n));
      }
      std::sort(runs.begin(), runs.end(),
                [](const Run& a, const Run& b) { return a.rounds < b.rounds; });
      const Run& mid = runs[1];
      const double log2n = std::log2(static_cast<double>(n));
      table.add_row({Table::num(static_cast<std::uint64_t>(n)), Table::num(log2n, 1),
                     mid.ok ? Table::num(static_cast<std::uint64_t>(mid.rounds))
                            : std::string("DNF"),
                     mid.ok ? Table::num(static_cast<double>(mid.rounds) / log2n, 2)
                            : std::string("-"),
                     Table::num(mid.wall_secs, 3)});
      scenario::Json row = scenario::Json::object();
      row["n"] = static_cast<std::uint64_t>(n);
      row["scheduler"] = "rounds";
      row["ok"] = mid.ok;
      row["rounds"] = static_cast<std::uint64_t>(mid.rounds);
      row["rounds_per_log2n"] =
          mid.ok ? static_cast<double>(mid.rounds) / log2n : 0.0;
      row["coldstart_secs"] = mid.wall_secs;
      curve.push_back(std::move(row));
    }
    table.print(
        "Scale curve / Theorem 8 — cold-start convergence up to n = 16384 "
        "(expect: rounds / log2 n roughly flat)");
    ssps::bench::result_json()["convergence_scale_curve"] = std::move(curve);
  }
  {
    // Delivery latency: bootstrap to legitimacy, fire a publish burst,
    // wait for publication agreement, and read the whole-run latency
    // percentiles off the report. Latency is measured in rounds, so every
    // column is a deterministic integer per seed — the gate compares them
    // drift-exact in both directions, like msgs_per_round.
    Table table({"n", "publications", "p50", "p99", "p999", "max"});
    scenario::Json lat_series = scenario::Json::array();
    for (std::size_t n : {16u, 64u, 256u}) {
      scenario::ScenarioSpec spec;
      spec.name = "latency-burst";
      spec.seed = 31 + n;
      spec.nodes = n;
      spec.mode = scenario::Mode::kSingleTopic;
      scenario::Phase bootstrap;
      bootstrap.name = "bootstrap";
      bootstrap.churn.joins = n;
      bootstrap.converge = true;
      bootstrap.max_rounds = 5000;
      spec.phases.push_back(bootstrap);
      scenario::Phase burst;
      burst.name = "publish-burst";
      burst.publish.count = n / 2;
      burst.converge = true;
      burst.max_rounds = 5000;
      spec.phases.push_back(burst);
      scenario::ScenarioRunner runner(std::move(spec));
      const scenario::ScenarioReport& report = runner.run();
      const auto& s = report.latency.global;
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     Table::num(s.count), Table::num(s.p50), Table::num(s.p99),
                     Table::num(s.p999), Table::num(s.max)});
      scenario::Json row = scenario::Json::object();
      row["n"] = static_cast<std::uint64_t>(n);
      row["scheduler"] = "rounds";
      row["ok"] = report.ok;
      row["latency_count"] = s.count;
      row["latency_p50"] = s.p50;
      row["latency_p99"] = s.p99;
      row["latency_p999"] = s.p999;
      row["latency_max"] = s.max;
      lat_series.push_back(std::move(row));
    }
    table.print(
        "Delivery latency — rounds from publish to each subscriber's first "
        "receipt over a converged ring (expect: p50 within a few rounds, "
        "max ~O(log n) via flooding)");

    // The same burst under the event-driven timed scheduler on a lossy
    // WAN profile (~80 ms median lognormal latency, 2% loss): percentiles
    // read in virtual seconds. Deterministic per seed like the round rows;
    // the gate keys the two schedulers' rows apart by the "scheduler"
    // field.
    Table timed_table({"n", "publications", "p50 s", "p99 s", "p999 s", "max s"});
    for (std::size_t n : {16u, 64u, 256u}) {
      scenario::ScenarioSpec spec;
      spec.name = "latency-burst-timed";
      spec.seed = 31 + n;
      spec.nodes = n;
      spec.mode = scenario::Mode::kSingleTopic;
      spec.exec.scheduler = scenario::Scheduler::kTimed;
      spec.exec.timed.local.latency = {sim::LatencySpec::Dist::kLognormal, -2.5, 0.5};
      spec.exec.timed.local.loss = 0.02;
      scenario::Phase bootstrap;
      bootstrap.name = "bootstrap";
      bootstrap.churn.joins = n;
      bootstrap.converge = true;
      bootstrap.max_rounds = 5000;
      spec.phases.push_back(bootstrap);
      scenario::Phase burst;
      burst.name = "publish-burst";
      burst.publish.count = n / 2;
      burst.converge = true;
      burst.max_rounds = 5000;
      spec.phases.push_back(burst);
      scenario::ScenarioRunner runner(std::move(spec));
      const scenario::ScenarioReport& report = runner.run();
      const auto& s = report.latency.global;
      timed_table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                           Table::num(s.count), Table::num(s.p50),
                           Table::num(s.p99), Table::num(s.p999),
                           Table::num(s.max)});
      scenario::Json row = scenario::Json::object();
      row["n"] = static_cast<std::uint64_t>(n);
      row["scheduler"] = "timed";
      row["ok"] = report.ok;
      row["latency_count"] = s.count;
      row["latency_p50"] = s.p50;
      row["latency_p99"] = s.p99;
      row["latency_p999"] = s.p999;
      row["latency_max"] = s.max;
      lat_series.push_back(std::move(row));
    }
    timed_table.print(
        "Delivery latency, timed scheduler — virtual seconds from publish "
        "to first receipt on a lossy ~80 ms WAN (expect: p50 of a few "
        "seconds; deterministic per seed)");
    ssps::bench::result_json()["delivery_latency"] = std::move(lat_series);
  }
  {
    // Recovery time under the survive-the-wire fault mix: the chaos-churn
    // builtin (timed WAN, 5% loss, 2% corruption, 1% duplication) crashes
    // an eighth of the ring, then restarts the victims from periodic —
    // possibly stale — snapshots. The row is the virtual seconds the
    // recover phase needs to go green again. Deterministic per seed, so
    // recovery_seconds is drift-gated in both directions like the latency
    // percentiles.
    Table table({"n", "recovery s", "corrupted", "rejected", "recovered clean"});
    scenario::Json rec_series = scenario::Json::array();
    for (std::size_t n : {16u, 64u}) {
      struct Rec {
        bool ok = false;
        std::uint64_t seconds = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t recovered = 0;
        std::uint64_t recovered_clean = 0;
      };
      std::vector<Rec> recs;
      for (std::uint64_t s = 1; s <= 3; ++s) {
        scenario::ScenarioRunner runner(
            scenario::builtin_scenario("chaos-churn", s * 13 + n, n));
        const scenario::ScenarioReport& report = runner.run();
        Rec rec;
        rec.ok = report.ok;
        for (const scenario::PhaseReport& p : report.phases) {
          rec.corrupted += p.corrupted;
          rec.rejected += p.rejected;
          if (p.name == "recover") {
            rec.seconds = p.convergence_rounds.value_or(0);
            rec.recovered = p.recovered;
            rec.recovered_clean = p.recovered_clean;
          }
        }
        recs.push_back(rec);
      }
      std::sort(recs.begin(), recs.end(),
                [](const Rec& a, const Rec& b) { return a.seconds < b.seconds; });
      const Rec& mid = recs[1];
      table.add_row(
          {Table::num(static_cast<std::uint64_t>(n)),
           mid.ok ? Table::num(mid.seconds) : std::string("DNF"),
           Table::num(mid.corrupted), Table::num(mid.rejected),
           Table::num(mid.recovered_clean) + "/" + Table::num(mid.recovered)});
      scenario::Json row = scenario::Json::object();
      row["n"] = static_cast<std::uint64_t>(n);
      row["scheduler"] = "timed";
      row["ok"] = mid.ok;
      row["recovery_seconds"] = mid.seconds;
      row["corrupted"] = mid.corrupted;
      row["rejected"] = mid.rejected;
      row["recovered"] = static_cast<std::uint64_t>(mid.recovered);
      row["recovered_clean"] = static_cast<std::uint64_t>(mid.recovered_clean);
      rec_series.push_back(std::move(row));
    }
    table.print(
        "Recovery time — crash-recover from stale snapshots on a lossy, "
        "corrupting WAN (expect: recovery within tens of virtual seconds; "
        "corrupted frames rejected, never delivered as junk)");
    ssps::bench::result_json()["recovery_time"] = std::move(rec_series);
  }
  {
    // E5 / Theorem 13: closure — observe a converged system. (Stays
    // hand-rolled: the engine has no per-round legitimacy probe.)
    Table table({"n", "closure rounds observed", "legit throughout", "msgs/node/round"});
    for (std::size_t n : {16u, 64u, 256u}) {
      SkipRingSystem sys(SkipRingSystem::Options{.seed = 5 + n, .fd_delay = 0});
      sys.add_subscribers(n);
      sys.run_until_legit(5000);
      sys.net().run_units(3);
      sys.net().metrics().reset();
      bool stable = true;
      const std::size_t window = 50;
      for (std::size_t i = 0; i < window; ++i) {
        sys.net().run_unit();
        stable = stable && sys.topology_legit();
      }
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     Table::num(static_cast<std::uint64_t>(window)),
                     stable ? "yes" : "NO",
                     Table::num(static_cast<double>(sys.net().metrics().total_sent()) /
                                    static_cast<double>(window) / static_cast<double>(n + 1),
                                2)});
    }
    table.print(
        "E5 / Theorem 13 — closure: a legitimate system stays legitimate under "
        "steady maintenance traffic (expect: yes, constant msgs/node/round)");
  }
  {
    // E12: label corruption vs edge corruption — the extended BuildRing's
    // label-correction machinery (Lemma 4) at work.
    Table table({"ablation class", "n", "rounds to legit"});
    for (const char* klass : {"labels-only", "edges-only"}) {
      for (std::size_t n : {16u, 64u, 256u}) {
        const Run r = run_class(klass, n, 7 + n);
        table.add_row({klass, Table::num(static_cast<std::uint64_t>(n)),
                       r.ok ? Table::num(static_cast<std::uint64_t>(r.rounds))
                            : std::string("DNF")});
        scenario::Json row = scenario::Json::object();
        row["class"] = klass;
        row["n"] = static_cast<std::uint64_t>(n);
        row["ok"] = r.ok;
        row["rounds"] = static_cast<std::uint64_t>(r.rounds);
        series.push_back(std::move(row));
      }
    }
    table.print(
        "E12 / Lemma 4 ablation — corrupted labels alone vs corrupted edges "
        "alone (expect: both converge; labels repair via Check corrections)");
  }
  ssps::bench::result_json()["convergence"] = std::move(series);
}

}  // namespace

SSPS_BENCH_MAIN("convergence", print_experiment)
