// Simulation-core throughput at scale: rounds/sec, msgs/sec and peak RSS
// for the full stack (BuildSR overlay + Algorithm 5 pub-sub) in
// steady-state maintenance, at n up to 16384. This is the bench behind the
// CI perf-regression gate: BENCH_simcore.json carries one row per n with
// deterministic fields (bootstrap convergence rounds, msgs per round) and
// throughput fields (rounds/sec, msgs/sec) that tools/bench_compare.py
// checks against bench/baselines/. A row whose bootstrap never converged
// reports ok = false, which the gate fails outright.
#include <sys/resource.h>

#include <algorithm>

#include "bench_common.hpp"
#include "pubsub/pubsub_node.hpp"

namespace {

using namespace ssps;
using ssps::bench::now_seconds;

std::size_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);
}

struct Cell {
  std::size_t n = 0;
  bool ok = false;  // bootstrap reached legitimacy within its budget
  std::size_t bootstrap_rounds = 0;
  double bootstrap_secs = 0;
  std::uint64_t msgs_per_round = 0;  // deterministic per (seed, n)
  double rounds_per_sec = 0;
  double msgs_per_sec = 0;
  std::size_t peak_rss_kb = 0;
  std::size_t pool_reserved_kb = 0;
};

Cell measure(std::size_t n, std::size_t measure_rounds, int reps,
             unsigned threads = 1) {
  Cell cell;
  cell.n = n;
  pubsub::PubSubSystem sys(core::SkipRingSystem::Options{.seed = 42, .fd_delay = 0});
  if (threads > 1) sys.net().set_threads(threads);
  sys.add_pubsub_subscribers(n);

  double t0 = now_seconds();
  const auto conv = sys.run_until_legit(20000);
  cell.bootstrap_secs = now_seconds() - t0;
  cell.ok = conv.has_value();
  cell.bootstrap_rounds = conv.value_or(0);

  // Steady-state maintenance window; best-of-reps wall time tames noisy
  // shared CI runners, while the message count is bit-deterministic.
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    sys.net().metrics().reset();
    t0 = now_seconds();
    sys.net().run_units(measure_rounds);
    const double secs = now_seconds() - t0;
    best = std::min(best, secs);
    cell.msgs_per_round =
        sys.net().metrics().total_delivered() / measure_rounds;
  }
  cell.rounds_per_sec = static_cast<double>(measure_rounds) / best;
  cell.msgs_per_sec =
      static_cast<double>(cell.msgs_per_round) * cell.rounds_per_sec;
  cell.peak_rss_kb = peak_rss_kb();
  cell.pool_reserved_kb = sys.net().pool_reserved_bytes() / 1024;
  return cell;
}

void print_experiment() {
  Table table({"n", "bootstrap rounds", "bootstrap s", "msgs/round", "rounds/sec",
               "msgs/sec", "peak RSS MB", "pool MB"});
  scenario::Json series = scenario::Json::array();
  for (std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    const std::size_t window = n >= 4096 ? 30 : 100;
    const Cell cell = measure(n, window, 3);
    table.add_row({Table::num(static_cast<std::uint64_t>(cell.n)),
                   Table::num(static_cast<std::uint64_t>(cell.bootstrap_rounds)),
                   Table::num(cell.bootstrap_secs, 3),
                   Table::num(cell.msgs_per_round),
                   Table::num(cell.rounds_per_sec, 1),
                   Table::num(cell.msgs_per_sec, 0),
                   Table::num(static_cast<double>(cell.peak_rss_kb) / 1024.0, 1),
                   Table::num(static_cast<double>(cell.pool_reserved_kb) / 1024.0, 1)});
    scenario::Json row = scenario::Json::object();
    row["n"] = static_cast<std::uint64_t>(cell.n);
    row["scheduler"] = "rounds";
    row["ok"] = cell.ok;
    row["bootstrap_rounds"] = static_cast<std::uint64_t>(cell.bootstrap_rounds);
    row["msgs_per_round"] = cell.msgs_per_round;
    row["rounds_per_sec"] = cell.rounds_per_sec;
    row["msgs_per_sec"] = cell.msgs_per_sec;
    row["peak_rss_kb"] = static_cast<std::uint64_t>(cell.peak_rss_kb);
    series.push_back(std::move(row));
  }
  table.print(
      "Simulation-core throughput — steady-state maintenance of the full "
      "stack (expect: msgs/round ~4n, rounds/sec falling ~1/n, RSS linear)");
  ssps::bench::result_json()["simcore"] = std::move(series);

  // Worker sweep: the same steady-state window under the parallel round
  // scheduler. msgs/round is a determinism pin (the trace is worker-count
  // independent, so the column must not move); rounds/sec is the scaling
  // measurement and only meaningful on multi-core hosts (a single-core
  // container serializes the workers and pays the barrier overhead).
  Table sweep({"n", "threads", "bootstrap rounds", "msgs/round", "rounds/sec",
               "msgs/sec"});
  scenario::Json sweep_series = scenario::Json::array();
  for (std::size_t n : {4096u, 16384u}) {
    for (unsigned threads : {1u, 2u, 4u}) {
      const Cell cell = measure(n, 30, 3, threads);
      sweep.add_row({Table::num(static_cast<std::uint64_t>(cell.n)),
                     Table::num(static_cast<std::uint64_t>(threads)),
                     Table::num(static_cast<std::uint64_t>(cell.bootstrap_rounds)),
                     Table::num(cell.msgs_per_round),
                     Table::num(cell.rounds_per_sec, 1),
                     Table::num(cell.msgs_per_sec, 0)});
      scenario::Json row = scenario::Json::object();
      row["n"] = static_cast<std::uint64_t>(cell.n);
      row["threads"] = static_cast<std::uint64_t>(threads);
      row["scheduler"] = "rounds";
      row["ok"] = cell.ok;
      row["bootstrap_rounds"] = static_cast<std::uint64_t>(cell.bootstrap_rounds);
      row["msgs_per_round"] = cell.msgs_per_round;
      row["rounds_per_sec"] = cell.rounds_per_sec;
      row["msgs_per_sec"] = cell.msgs_per_sec;
      sweep_series.push_back(std::move(row));
    }
  }
  sweep.print(
      "Parallel round scheduler — steady-state worker sweep (expect: "
      "identical msgs/round per n; rounds/sec scaling with cores)");
  ssps::bench::result_json()["simcore_threads"] = std::move(sweep_series);
}

}  // namespace

SSPS_BENCH_MAIN("simcore", print_experiment)
