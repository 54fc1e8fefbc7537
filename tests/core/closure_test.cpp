// Theorem 13 (Network Closure): once the explicit edges form SR(n), they
// are preserved — and the steady-state maintenance traffic is bounded.
#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hpp"

namespace ssps::core {
namespace {

/// Snapshot of every subscriber's explicit protocol state.
std::string state_fingerprint(const SkipRingSystem& sys) {
  std::ostringstream out;
  for (sim::NodeId id : sys.subscriber_ids()) {
    const SubscriberProtocol& sub = sys.subscriber(id);
    out << id.value << ":";
    out << (sub.label() ? sub.label()->to_string() : "_") << ";";
    auto slot = [&](const std::optional<LabeledRef>& s) {
      if (s) {
        out << s->label.to_string() << "@" << s->node.value;
      } else {
        out << "_";
      }
      out << ";";
    };
    slot(sub.left());
    slot(sub.right());
    slot(sub.ring());
    for (const auto& [l, n] : sub.shortcuts()) {
      out << l.to_string() << "@" << n.value << ",";
    }
    out << "|";
  }
  return out.str();
}

class Closure : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Closure, StateIsFrozenAfterLegitimacy) {
  const std::size_t n = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 11 + n, .fd_delay = 0});
  sys.add_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value()) << sys.legitimacy_violation();
  const std::string before = state_fingerprint(sys);
  for (int round = 0; round < 50; ++round) {
    sys.net().run_unit();
    ASSERT_TRUE(sys.topology_legit())
        << "round " << round << ": " << sys.legitimacy_violation();
    ASSERT_EQ(state_fingerprint(sys), before) << "round " << round;
  }
}

TEST_P(Closure, SteadyStateTrafficIsConstantPerNode) {
  const std::size_t n = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 3 + n, .fd_delay = 0});
  sys.add_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value());
  sys.net().run_units(5);  // drain transients
  sys.net().metrics().reset();
  const std::size_t window = 40;
  sys.net().run_units(window);
  const double per_node_round =
      static_cast<double>(sys.net().metrics().total_sent()) /
      static_cast<double>(window) / static_cast<double>(n + 1);
  // Each node sends a handful of maintenance messages per round
  // (2 Checks, ≤2 shortcut introductions, the supervisor 1 config, plus
  // the rare probabilistic GetConfiguration): comfortably below 8.
  EXPECT_LT(per_node_round, 8.0) << "n=" << n;
  EXPECT_GT(per_node_round, 0.5) << "n=" << n;  // it is not silent either
}

TEST_P(Closure, NoRemoveConnectionsOrSubscribesInSteadyState) {
  const std::size_t n = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 17 + n, .fd_delay = 0});
  sys.add_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value());
  sys.net().run_units(5);
  sys.net().metrics().reset();
  sys.net().run_units(30);
  EXPECT_EQ(sys.net().metrics().sent("Subscribe"), 0u);
  EXPECT_EQ(sys.net().metrics().sent("Unsubscribe"), 0u);
  EXPECT_EQ(sys.net().metrics().sent("RemoveConnections"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Closure, ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(Closure, DatabaseNeverChangesWithoutChurn) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 4, .fd_delay = 0});
  sys.add_subscribers(12);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  const auto before = sys.supervisor().database();
  sys.net().run_units(60);
  EXPECT_EQ(sys.supervisor().database(), before);
}

TEST(Closure, UnequalSpeedsPreserveLegitimacyToo) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 9, .fd_delay = 0});
  sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  const std::string before = state_fingerprint(sys);
  sys.net().set_max_timeout_period(4);
  sys.net().run_units(3000);
  // Back to lockstep, drain whatever is in flight, then compare.
  sys.net().set_max_timeout_period(1);
  sys.net().run_units(3);
  EXPECT_EQ(state_fingerprint(sys), before);
  EXPECT_TRUE(sys.topology_legit()) << sys.legitimacy_violation();
}

}  // namespace
}  // namespace ssps::core
