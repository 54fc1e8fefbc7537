// Simulation-core throughput at scale: rounds/sec, msgs/sec and peak RSS
// for the full stack (BuildSR overlay + Algorithm 5 pub-sub) in
// steady-state maintenance, at n up to 16384. This is the bench behind the
// CI perf-regression gate: BENCH_simcore.json carries one row per n with
// deterministic fields (bootstrap convergence rounds, msgs per round) and
// throughput fields (rounds/sec, msgs/sec) that tools/bench_compare.py
// checks against bench/baselines/.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <vector>

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

void BM_SteadyRoundParallel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  pubsub::PubSubSystem sys(core::SkipRingSystem::Options{.seed = 7, .fd_delay = 0});
  sys.net().set_threads(threads);
  sys.add_pubsub_subscribers(n);
  sys.run_until_legit(20000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.net().run_unit());
  }
}
BENCHMARK(BM_SteadyRoundParallel)
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({16384, 2})
    ->Args({16384, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_SteadyRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  pubsub::PubSubSystem sys(core::SkipRingSystem::Options{.seed = 7, .fd_delay = 0});
  sys.add_pubsub_subscribers(n);
  sys.run_until_legit(20000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.net().run_unit());
  }
}
BENCHMARK(BM_SteadyRound)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_EmitDeliverCycle(benchmark::State& state) {
  // Pure sim-core cost: pooled emit + shuffled grouped delivery into an
  // empty handler, no protocol logic.
  struct Sink final : sim::Node {
    void handle(sim::PooledMsg) override {}
    void timeout() override {}
  };
  sim::Network net(1);
  std::vector<sim::NodeId> ids;
  for (int i = 0; i < 1024; ++i) ids.push_back(net.spawn<Sink>());
  const core::LabeledRef ref{core::Label::from_index(5), ids[3]};
  const core::Label believed = core::Label::from_index(9);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      net.emit<core::msg::Check>(ids[(i * 37) & 1023], ref, believed,
                                 core::IntroFlag::kLinear);
    }
    benchmark::DoNotOptimize(net.run_unit());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EmitDeliverCycle)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("simcore", print_experiment)
