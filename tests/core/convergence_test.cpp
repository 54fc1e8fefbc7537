// Theorem 8 (Network Convergence): BuildSR reaches a legitimate skip ring
// from arbitrary initial states. Parameterized sweeps over system size,
// seeds and corruption classes, plus stress under unequal process speeds.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "core/chaos.hpp"
#include "core/system.hpp"
#include "scenario/execution.hpp"
#include "sched/timed.hpp"

namespace ssps::core {
namespace {

struct Case {
  std::size_t n;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return "n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
}

class ColdStart : public ::testing::TestWithParam<Case> {};

TEST_P(ColdStart, ConvergesAndIsLegit) {
  const auto [n, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(n);
  const auto rounds = sys.run_until_legit(200 + 30 * n);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  // Cold-start convergence is fast: roughly logarithmic in n (the
  // supervisor integrates everyone in O(1) and the ring wires itself).
  EXPECT_LE(*rounds, 30 + 4 * static_cast<std::size_t>(std::log2(n + 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColdStart,
    ::testing::Values(Case{1, 1}, Case{2, 2}, Case{3, 3}, Case{4, 4}, Case{5, 5},
                      Case{8, 1}, Case{13, 2}, Case{16, 3}, Case{16, 77}, Case{27, 4},
                      Case{32, 5}, Case{50, 6}, Case{64, 7}, Case{64, 1234},
                      Case{100, 8}),
    case_name);

class CorruptedStart : public ::testing::TestWithParam<Case> {};

TEST_P(CorruptedStart, ConvergesFromFullChaos) {
  const auto [n, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  ChaosOptions chaos;
  chaos.seed = seed * 31 + 7;
  corrupt_system(sys, chaos);
  const auto rounds = sys.run_until_legit(500 + 50 * n);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorruptedStart,
    ::testing::Values(Case{2, 1}, Case{3, 9}, Case{4, 2}, Case{8, 3}, Case{8, 17},
                      Case{16, 4}, Case{16, 42}, Case{24, 5}, Case{32, 6},
                      Case{48, 7}, Case{64, 8}),
    case_name);

class DatabaseWipe : public ::testing::TestWithParam<Case> {};

TEST_P(DatabaseWipe, RecoversFromEmptyDatabase) {
  // The hardest database corruption: the supervisor forgets everyone while
  // subscribers keep stale labels and edges. Actions (i), (ii) and (iv)
  // must re-register the whole population.
  const auto [n, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  ChaosOptions chaos;
  chaos.seed = seed;
  chaos.wipe_database = true;
  chaos.clear_label_pct = 0;  // everyone keeps a (now unrecorded) label
  chaos.random_label_pct = 0;
  chaos.scramble_edges_pct = 0;
  chaos.junk_messages = 0;
  corrupt_system(sys, chaos);
  const auto rounds = sys.run_until_legit(800 + 80 * n);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
}

INSTANTIATE_TEST_SUITE_P(Sweep, DatabaseWipe,
                         ::testing::Values(Case{2, 11}, Case{5, 12}, Case{9, 13},
                                           Case{16, 14}, Case{32, 15}),
                         case_name);

class SplitBrain : public ::testing::TestWithParam<Case> {};

TEST_P(SplitBrain, MergesTwoIndependentRings) {
  const auto [n, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(n);
  split_brain(sys, seed * 13 + 1);
  const auto rounds = sys.run_until_legit(800 + 80 * n);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitBrain,
                         ::testing::Values(Case{4, 1}, Case{8, 2}, Case{16, 3},
                                           Case{25, 4}, Case{32, 5}, Case{64, 6}),
                         case_name);

TEST(Convergence, UnequalSpeedsReachLegitimacyToo) {
  // Self-stabilization must not depend on round synchrony: let nodes fire
  // their Timeouts at unequal rates (periods of up to 4 rounds), then
  // verify legitimacy directly.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
    sys.add_subscribers(24);
    ChaosOptions chaos;
    chaos.seed = seed + 100;
    corrupt_system(sys, chaos);
    sys.net().set_max_timeout_period(4);
    bool legit = false;
    for (int block = 0; block < 200 && !legit; ++block) {
      sys.net().run_units(200);
      legit = sys.topology_legit();
    }
    EXPECT_TRUE(legit) << "seed=" << seed << ": " << sys.legitimacy_violation();
  }
}

TEST(Convergence, DISABLED_HoldsLegitimacyUnderUnequalTimeoutPeriods) {
  // Known defect, pinned here and not yet fixed: under unequal Timeout
  // periods a corrupted ring can reach legitimacy and keep relapsing.
  // Node A's stored right neighbour carries a stale label; A's Timeout
  // introduces that pair to its left partner B as an IntroduceShortcut
  // (partner_ref falls back to the neighbour itself when the partner
  // chain is empty); the label is none of B's expected shortcut keys, so
  // B linearizes it and delegates it straight back to A, whose consider()
  // overwrites its stored label because the node matches. The claim
  // checked: after first reaching legitimacy, the ring stays legitimate
  // for 20 consecutive rounds within 5,000 rounds. It fails for serial
  // seed 64 and lan seed 29 and holds for every other seed here; under
  // lockstep (period 1) those two hold too.
  for (const std::string_view profile : {"serial", "lan"}) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
      if (profile != "serial") {
        scenario::ExecutionSpec exec;
        ASSERT_TRUE(scenario::apply_latency_profile(exec, profile));
        sys.net().set_scheduler(
            std::make_unique<sched::TimedScheduler>(sys.net(), exec.timed));
      }
      sys.add_subscribers(24);
      ChaosOptions chaos;
      chaos.seed = seed + 100;
      corrupt_system(sys, chaos);
      sys.net().set_max_timeout_period(4);
      int streak = 0;
      for (int round = 0; round < 5000 && streak < 20; ++round) {
        sys.net().run_unit();
        streak = sys.topology_legit() ? streak + 1 : 0;
      }
      EXPECT_GE(streak, 20) << profile << " seed " << seed;
    }
  }
}

TEST(Convergence, JunkMessagesAloneCannotBreakALegitimateSystem) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 5, .fd_delay = 0});
  sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  ChaosOptions chaos;
  chaos.seed = 6;
  chaos.clear_label_pct = 0;
  chaos.random_label_pct = 0;
  chaos.scramble_edges_pct = 0;
  chaos.bogus_shortcut_pct = 0;
  chaos.corrupt_database = false;
  chaos.junk_messages = 200;
  corrupt_system(sys, chaos);
  const auto rounds = sys.run_until_legit(2000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
}

TEST(Convergence, SupervisorStarMakesInitialConnectivityUnnecessary) {
  // Every node knows the supervisor read-only (§1.1), so even a state
  // where no subscriber knows any peer converges.
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 8, .fd_delay = 0});
  const auto ids = sys.add_subscribers(20);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  for (sim::NodeId id : ids) {
    auto& sub = sys.subscriber(id);
    sub.chaos_set_left(std::nullopt);
    sub.chaos_set_right(std::nullopt);
    sub.chaos_set_ring(std::nullopt);
    sub.chaos_clear_shortcuts();
  }
  const auto rounds = sys.run_until_legit(2000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
}

TEST(Convergence, WeaklyConnectedHoldsThroughoutStabilization) {
  // The union of explicit and implicit edges plus the supervisor star
  // must stay weakly connected while stabilizing (references are delegated,
  // never dropped).
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 21, .fd_delay = 0});
  sys.add_subscribers(16);
  ChaosOptions chaos;
  chaos.seed = 3;
  corrupt_system(sys, chaos);
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(sys.net().weakly_connected(sys.supervisor_id())) << "round " << round;
    if (sys.topology_legit()) break;
    sys.net().run_unit();
  }
}

}  // namespace
}  // namespace ssps::core
