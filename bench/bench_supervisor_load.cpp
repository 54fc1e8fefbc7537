// Experiment E2 — Theorem 5: expected configuration requests reaching the
// supervisor per timeout interval in a legitimate state.
//
// Paper claim: the expectation is < 1 and independent of n (the proof sums
// Σ_k 2^{k−1}/(2^k·k²) < 1). With the real label population (two length-1
// labels — the paper's own Lemma 3 population) the exact steady-state
// expectation is ≈ 1.32, still a constant in n; see EXPERIMENTS.md for the
// discrepancy discussion. This bench measures the rate and the
// supervisor's total in/out traffic per round.
#include <cmath>

#include "bench_common.hpp"
#include "core/system.hpp"

namespace {

using namespace ssps;
using namespace ssps::core;

double predicted(std::size_t n) {
  double expected = 0.0;
  for (std::size_t x = 0; x < n; ++x) {
    const int k = Label::from_index(x).length();
    expected += 1.0 / (std::pow(2.0, k) * k * k);
  }
  return expected;
}

void print_experiment() {
  Table table({"n", "requests/round (measured)", "predicted (corrected series)",
               "paper bound", "supervisor out/round", "supervisor in/round"});
  const std::size_t rounds = 500;
  for (std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    SkipRingSystem sys(SkipRingSystem::Options{.seed = 100 + n, .fd_delay = 0});
    sys.add_subscribers(n);
    const auto converged = sys.run_until_legit(5000);
    if (!converged) {
      std::fprintf(stderr, "n=%zu failed to converge\n", n);
      continue;
    }
    sys.net().run_units(5);
    sys.net().metrics().reset();
    sys.net().run_units(rounds);
    const auto& metrics = sys.net().metrics();
    const double requests =
        static_cast<double>(metrics.sent("GetConfiguration") + metrics.sent("Subscribe") +
                            metrics.sent("Unsubscribe")) /
        static_cast<double>(rounds);
    const double sup_in =
        static_cast<double>(metrics.received_by(sys.supervisor_id())) /
        static_cast<double>(rounds);
    const double sup_out =
        static_cast<double>(metrics.sent("SetData")) / static_cast<double>(rounds);
    table.add_row({Table::num(static_cast<std::uint64_t>(n)), Table::num(requests, 3),
                   Table::num(predicted(n), 3), "< 1 (see note)", Table::num(sup_out, 3),
                   Table::num(sup_in, 3)});
  }
  table.print(
      "E2 / Theorem 5 — supervisor request rate in legitimate state "
      "(expect: constant in n, ~1.32 with the real f(1)=2 label population)");
}

void BM_SteadyStateRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 7, .fd_delay = 0});
  sys.add_subscribers(n);
  sys.run_until_legit(5000);
  for (auto _ : state) {
    sys.net().run_unit();
  }
  state.counters["msgs/round"] = benchmark::Counter(
      static_cast<double>(sys.net().metrics().total_sent()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SteadyStateRound)->Arg(64)->Arg(512)->Arg(2048)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("supervisor_load", print_experiment)
