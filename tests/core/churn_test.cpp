// Churn: subscribe/unsubscribe dynamics (§4.1) — correctness (Lemma 6),
// message cost (Theorem 7), and the insertion-spreading property ("a
// pre-existing subscriber is involved only for two consecutive subscribe
// operations … until the number of subscribers has doubled").
#include <gtest/gtest.h>

#include <map>

#include "core/system.hpp"

namespace ssps::core {
namespace {

TEST(Churn, JoinAfterConvergenceIntegratesNewNode) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 1, .fd_delay = 0});
  sys.add_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  const sim::NodeId fresh = sys.add_subscriber();
  ASSERT_TRUE(sys.run_until_legit(500).has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.subscriber(fresh).label(), Label::from_index(8));
}

TEST(Churn, UnsubscribeDisconnectsTheLeaverLemma6) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 2, .fd_delay = 0});
  const auto ids = sys.add_subscribers(10);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  const sim::NodeId leaver = ids[3];
  sys.request_unsubscribe(leaver);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value()) << sys.legitimacy_violation();
  EXPECT_TRUE(sys.subscriber(leaver).departed());
  // Lemma 6: no subscriber still references the leaver.
  for (sim::NodeId id : sys.active_ids()) {
    std::vector<sim::NodeId> refs;
    sys.subscriber(id).collect_refs(refs);
    for (sim::NodeId r : refs) EXPECT_NE(r, leaver);
  }
  // And the leaver dropped all its own connections.
  std::vector<sim::NodeId> refs;
  sys.subscriber(leaver).collect_refs(refs);
  EXPECT_TRUE(refs.empty());
}

TEST(Churn, MassUnsubscribeConverges) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 3, .fd_delay = 0});
  const auto ids = sys.add_subscribers(20);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (std::size_t i = 0; i < ids.size(); i += 2) sys.request_unsubscribe(ids[i]);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 10u);
}

TEST(Churn, EveryoneLeaves) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 4, .fd_delay = 0});
  const auto ids = sys.add_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(400).has_value());
  for (sim::NodeId id : ids) sys.request_unsubscribe(id);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  EXPECT_EQ(sys.supervisor().size(), 0u);
  // The permission messages may still be in flight when the (empty)
  // database first looks legitimate; drain them.
  sys.net().run_units(5);
  for (sim::NodeId id : ids) EXPECT_TRUE(sys.subscriber(id).departed());
}

TEST(Churn, InterleavedJoinLeave) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 5, .fd_delay = 0});
  auto ids = sys.add_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  for (int wave = 0; wave < 3; ++wave) {
    sys.request_unsubscribe(ids[static_cast<std::size_t>(wave)]);
    ids.push_back(sys.add_subscriber());
    ids.push_back(sys.add_subscriber());
    sys.net().run_units(3);  // deliberately do not wait for quiescence
  }
  ASSERT_TRUE(sys.run_until_legit(2000).has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 8u - 3u + 6u);
}

TEST(Churn, SupervisorMessagesPerSubscribeIsConstant) {
  // Theorem 7, measured: the configuration traffic a join triggers at the
  // supervisor is a constant — independent of n. (The absolute number is
  // a small handful: the joiner's configuration, the round-robin SetData
  // of each observed round, and the joiner's believed-minimum
  // GetConfiguration probes until its first configuration lands.)
  for (std::size_t n : {8, 32, 128}) {
    SkipRingSystem sys(SkipRingSystem::Options{.seed = 6 + n, .fd_delay = 0});
    sys.add_subscribers(n);
    ASSERT_TRUE(sys.run_until_legit(3000).has_value());
    // Baseline: steady-state SetData volume over the observation window
    // (round-robin + Theorem-5 request replies).
    const std::size_t window = 4;
    sys.net().metrics().reset();
    sys.net().run_units(window);
    const auto baseline = sys.net().metrics().sent("SetData");
    // Join and measure the same window again.
    sys.net().metrics().reset();
    sys.add_subscriber();
    sys.net().run_units(window);
    const auto with_join = sys.net().metrics().sent("SetData");
    const auto marginal = with_join > baseline ? with_join - baseline : 0;
    // The join itself costs one configuration; the joiner's
    // believed-minimum probes add at most a few more. Crucially the bound
    // does not grow with n.
    EXPECT_LE(marginal, 8u) << "n=" << n;
  }
}

TEST(Churn, DoublingInvolvesEachOldSubscriberAtMostTwice) {
  // §4.1: when n subscribers join a converged SR(n), each pre-existing
  // subscriber changes its ring neighborhood for at most two of those
  // insertions (the new labels bisect every gap exactly once on each
  // side).
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 7, .fd_delay = 0});
  const auto old_ids = sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());

  // Record each old subscriber's ring neighbors.
  std::map<std::uint64_t, std::pair<std::string, std::string>> before;
  auto sides = [&](sim::NodeId id) {
    const SubscriberProtocol& s = sys.subscriber(id);
    auto left = s.left() ? s.left()->label.to_string()
                         : (s.ring() ? s.ring()->label.to_string() : "_");
    auto right = s.right() ? s.right()->label.to_string()
                           : (s.ring() ? s.ring()->label.to_string() : "_");
    return std::make_pair(left, right);
  };
  for (sim::NodeId id : old_ids) before[id.value] = sides(id);

  sys.add_subscribers(16);  // double the system
  ASSERT_TRUE(sys.run_until_legit(1500).has_value()) << sys.legitimacy_violation();

  for (sim::NodeId id : old_ids) {
    const auto [l_before, r_before] = before[id.value];
    const auto [l_after, r_after] = sides(id);
    // Both sides changed at most once each: with 16 insertions into 16
    // gaps, each old node sees exactly one new left and one new right
    // neighbor — and no old neighbor is farther than one bisection away.
    EXPECT_NE(l_after, "_");
    EXPECT_NE(r_after, "_");
    EXPECT_NE(l_after, l_before);  // exactly bisected on the left
    EXPECT_NE(r_after, r_before);  // and on the right
  }
}

TEST(Churn, RejoinAfterDepartureGetsFreshLabel) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 8, .fd_delay = 0});
  const auto ids = sys.add_subscribers(4);
  ASSERT_TRUE(sys.run_until_legit(400).has_value());
  sys.request_unsubscribe(ids[1]);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  // A departed node cannot rejoin (its protocol instance is closed); a
  // *new* node joins instead and receives l(3) — the freed top label.
  const sim::NodeId fresh = sys.add_subscriber();
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  EXPECT_EQ(sys.subscriber(fresh).label(), Label::from_index(3));
}

}  // namespace
}  // namespace ssps::core
