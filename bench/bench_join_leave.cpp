// Experiment E3 — Theorem 7 + §4.1: membership operation costs.
//
// Paper claims: the supervisor sends O(1) messages per subscribe (1) and
// per unsubscribe (≤ 2); insertions spread so that a pre-existing
// subscriber's ring neighborhood changes for at most two insertions until
// the population doubles.
#include <map>

#include "bench_common.hpp"
#include "core/system.hpp"

namespace {

using namespace ssps;
using namespace ssps::core;

struct OpCost {
  double join_marginal_configs;
  double leave_marginal_configs;
  std::size_t join_integration_rounds;
};

OpCost measure(std::size_t n) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 40 + n, .fd_delay = 0});
  auto ids = sys.add_subscribers(n);
  sys.run_until_legit(5000);

  // Precise steady-state SetData rate (round-robin + Theorem-5 replies).
  sys.net().run_units(3);
  sys.net().metrics().reset();
  const std::size_t calib = 200;
  sys.net().run_units(calib);
  const double rate =
      static_cast<double>(sys.net().metrics().sent("SetData")) / calib;

  // 20 joins, 3 settle rounds each; the marginal configuration volume per
  // join is (total − rate·rounds)/20, which averages the noise away.
  const std::size_t ops = 20;
  const std::size_t settle = 3;
  sys.net().metrics().reset();
  for (std::size_t i = 0; i < ops; ++i) {
    ids.push_back(sys.add_subscriber());
    sys.net().run_units(settle);
  }
  const double join_configs =
      (static_cast<double>(sys.net().metrics().sent("SetData")) -
       rate * static_cast<double>(ops * settle)) /
      static_cast<double>(ops);
  const auto join_rounds = sys.run_until_legit(2000);

  // 20 interior leaves (each forces the relabel path).
  sys.net().run_units(3);
  sys.net().metrics().reset();
  for (std::size_t i = 0; i < ops; ++i) {
    sys.request_unsubscribe(ids[n / 2 + i]);
    sys.net().run_units(settle);
  }
  const double leave_configs =
      (static_cast<double>(sys.net().metrics().sent("SetData")) -
       rate * static_cast<double>(ops * settle)) /
      static_cast<double>(ops);
  sys.run_until_legit(2000);

  return OpCost{join_configs, leave_configs, join_rounds.value_or(9999)};
}

/// §4.1 doubling claim: count, over a doubling from n to 2n, how many of
/// the original subscribers saw their ring neighborhood change more than
/// twice (expected: none — each gap is bisected exactly once per side).
std::size_t over_touched_during_doubling(std::size_t n) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 90 + n, .fd_delay = 0});
  const auto old_ids = sys.add_subscribers(n);
  sys.run_until_legit(5000);

  std::map<std::uint64_t, int> changes;
  std::map<std::uint64_t, std::pair<std::string, std::string>> last;
  auto sides = [&](sim::NodeId id) {
    const auto& s = sys.subscriber(id);
    std::string left = s.left() ? s.left()->label.to_string()
                                : (s.ring() ? s.ring()->label.to_string() : "_");
    std::string right = s.right() ? s.right()->label.to_string()
                                  : (s.ring() ? s.ring()->label.to_string() : "_");
    return std::make_pair(left, right);
  };
  for (sim::NodeId id : old_ids) last[id.value] = sides(id);

  for (std::size_t j = 0; j < n; ++j) {
    sys.add_subscriber();
    sys.run_until_legit(3000);
    for (sim::NodeId id : old_ids) {
      auto now = sides(id);
      if (now.first != last[id.value].first) changes[id.value] += 1;
      if (now.second != last[id.value].second) changes[id.value] += 1;
      last[id.value] = now;
    }
  }
  std::size_t over = 0;
  for (const auto& [id, c] : changes) {
    if (c > 2) ++over;
  }
  return over;
}

void print_experiment() {
  {
    Table table({"n", "configs per join", "configs per leave", "rounds to integrate"});
    for (std::size_t n : {16u, 64u, 256u, 1024u}) {
      const OpCost cost = measure(n);
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     Table::num(cost.join_marginal_configs, 1),
                     Table::num(cost.leave_marginal_configs, 1),
                     Table::num(static_cast<std::uint64_t>(cost.join_integration_rounds))});
    }
    table.print(
        "E3 / Theorem 7 — supervisor configuration messages per membership op "
        "(expect: O(1) and flat in n; the op itself costs join=1 / leave<=2 "
        "— see supervisor_test — plus an O(1) healing dialogue counted here)");
  }
  {
    Table table({"n -> 2n", "old nodes touched >2 times"});
    for (std::size_t n : {8u, 16u, 32u}) {
      table.add_row({Table::num(static_cast<std::uint64_t>(n)) + " -> " +
                         Table::num(static_cast<std::uint64_t>(2 * n)),
                     Table::num(static_cast<std::uint64_t>(over_touched_during_doubling(n)))});
    }
    table.print(
        "E3b / §4.1 — insertion spreading: ring-neighborhood changes per "
        "pre-existing subscriber during a doubling (expect: 0 nodes above 2)");
  }
}

void BM_SubscribeOp(benchmark::State& state) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 3, .fd_delay = 0});
  sys.add_subscribers(static_cast<std::size_t>(state.range(0)));
  sys.run_until_legit(5000);
  for (auto _ : state) {
    sys.add_subscriber();
    sys.net().run_units(2);
  }
}
BENCHMARK(BM_SubscribeOp)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("join_leave", print_experiment)
