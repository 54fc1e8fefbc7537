// Experiment E8 — §1.2/§4.3: flooding over the skip ring delivers new
// publications in O(log n) rounds (diameter log n), versus the O(n)
// plain-ring routing of the related ad-hoc systems [20, 21].
#include <cmath>

#include "bench_common.hpp"
#include "core/skip_ring_spec.hpp"
#include "pubsub/pubsub_node.hpp"

namespace {

using namespace ssps;
using namespace ssps::core;
using namespace ssps::pubsub;

std::size_t measured_flood_rounds(std::size_t n, std::uint64_t seed) {
  PubSubSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0},
                   PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(n);
  if (!sys.run_until_legit(8000)) return 0;
  sys.pubsub(ids[0]).publish("flood probe");
  const auto rounds =
      sys.net().run_until([&] { return sys.publications_converged(); }, 4 * n);
  return rounds.value_or(0);
}

/// Worst-case hop distance using only the ring edges E_R (the [20, 21]
/// regime: a cycle with routing over successors).
std::size_t plain_ring_worst_hops(std::size_t n) { return n / 2; }

void print_experiment() {
  Table table({"n", "flood rounds (measured)", "SR diameter", "log2(n)",
               "plain-ring worst hops (related work)"});
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    const SkipRingSpec spec(n);
    const int diameter = spec.diameter();
    table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(static_cast<std::uint64_t>(measured_flood_rounds(n, 60 + n))),
                   Table::num(static_cast<std::uint64_t>(diameter)),
                   Table::num(std::log2(static_cast<double>(n)), 1),
                   Table::num(static_cast<std::uint64_t>(plain_ring_worst_hops(n)))});
  }
  table.print(
      "E8 / §4.3 — flooding delivery time vs plain-ring routing "
      "(expect: measured ~diameter ~log n, vs n/2 for the cycle of [20,21])");
}

void BM_FloodOneRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  PubSubSystem sys(SkipRingSystem::Options{.seed = 8, .fd_delay = 0}, PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(n);
  sys.run_until_legit(8000);
  std::size_t i = 0;
  for (auto _ : state) {
    sys.pubsub(ids[i % ids.size()]).publish("p" + std::to_string(i));
    sys.net().run_unit();
    ++i;
  }
}
BENCHMARK(BM_FloodOneRound)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("flooding", print_experiment)
