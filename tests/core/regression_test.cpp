// Regression tests for protocol races discovered during the reproduction.
// Each of these was a permanent stuck state before its fix; the tests pin
// the message-level behavior.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/subscriber.hpp"
#include "core/supervisor.hpp"
#include "core/system.hpp"
#include "test_support.hpp"

namespace ssps::core {
namespace {

using testing::CapturingSink;

constexpr sim::NodeId kSelf{1};
constexpr sim::NodeId kSup{99};

// ---------------------------------------------------------------------------
// Race 1: a stale Subscribe (non-FIFO channels) processed after departure
// re-inserts a dead-to-the-protocol node into the database forever.
// Fix: departed nodes answer re-integration configs with Unsubscribe.
// ---------------------------------------------------------------------------

TEST(Regression, DepartedNodeRejectsReintegrationConfig) {
  CapturingSink sink;
  ssps::Rng rng(1);
  SubscriberProtocol sub(kSelf, kSup, sink, rng);
  sub.chaos_set_label(*Label::parse("01"));
  sub.request_unsubscribe();
  sub.handle(msg::SetData(std::nullopt, std::nullopt, std::nullopt));  // permission
  ASSERT_TRUE(sub.departed());
  sink.clear();
  // The supervisor — fooled by our stale Subscribe — sends a fresh config.
  sub.handle(msg::SetData(std::nullopt, *Label::parse("111"), std::nullopt));
  const auto unsubs = sink.of_type<msg::Unsubscribe>(kSup);
  ASSERT_EQ(unsubs.size(), 1u);
  EXPECT_EQ(unsubs[0]->who, kSelf);
  EXPECT_FALSE(sub.label().has_value());  // did not adopt the label
  EXPECT_TRUE(sub.departed());
}

TEST(Regression, StaleSubscribeAfterDepartureHealsEndToEnd) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 7, .fd_delay = 0});
  const auto ids = sys.add_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  // Inject the race directly: the node leaves; AFTER its departure a stale
  // Subscribe of it reaches the supervisor.
  sys.request_unsubscribe(ids[2]);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  ASSERT_TRUE(sys.subscriber(ids[2]).departed());
  sys.net().inject(sys.supervisor_id(),
                   sys.net().pool().make<msg::Subscribe>(ids[2]));
  // The database transiently re-admits the departed node, then forgets it
  // again when the node answers with Unsubscribe.
  const auto rounds = sys.run_until_legit(2000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_FALSE(sys.supervisor().label_of(ids[2]).has_value());
  EXPECT_EQ(sys.supervisor().size(), 5u);
}

// ---------------------------------------------------------------------------
// Race 2: a crashed neighbor whose stale label out-competes every live
// proposal is kept forever (delegations to it vanish). Fix: the supervisor
// answers GetConfiguration about a suspected-dead subject by telling the
// requester to purge it (§3.3's failure detector stays supervisor-only).
// ---------------------------------------------------------------------------

TEST(Regression, SupervisorAnswersDeadSubjectQueriesWithPurge) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 9, .fd_delay = 0});
  const auto ids = sys.add_subscribers(4);
  ASSERT_TRUE(sys.run_until_legit(400).has_value());
  sys.crash(ids[0]);
  sys.net().run_units(1);  // let the detector see it
  // Another subscriber asks about the dead node on its own behalf.
  sys.net().metrics().reset();
  sys.net().inject(sys.supervisor_id(),
                   sys.net().pool().make<msg::GetConfiguration>(ids[0], ids[1]));
  sys.net().run_units(1);
  EXPECT_GE(sys.net().metrics().sent("RemoveConnections"), 1u);
}

TEST(Regression, DeadCloserNeighborIsEventuallyPurged) {
  // End-to-end: plant a crashed node as someone's "closer" neighbor under
  // a stale label and verify the system still converges.
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 11, .fd_delay = 0});
  const auto ids = sys.add_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(600).has_value());
  sys.crash(ids[3]);
  // Hand a survivor a fabricated too-good-to-be-true edge to the corpse.
  sys.subscriber(ids[4]).chaos_set_left(
      LabeledRef{*Label::parse("010101010101"), ids[3]});
  const auto rounds = sys.run_until_legit(4000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  for (sim::NodeId id : sys.active_ids()) {
    std::vector<sim::NodeId> refs;
    sys.subscriber(id).collect_refs(refs);
    for (sim::NodeId r : refs) EXPECT_NE(r, ids[3]);
  }
}

// ---------------------------------------------------------------------------
// Race 3: self-references under corrupted labels are invisible to the
// protocol (nodes ignore introductions from themselves). Fix: sanitized
// in revalidate_sides().
// ---------------------------------------------------------------------------

TEST(Regression, SelfReferenceInNeighborSlotIsDropped) {
  CapturingSink sink;
  ssps::Rng rng(3);
  SubscriberProtocol sub(kSelf, kSup, sink, rng);
  sub.chaos_set_label(*Label::parse("01"));
  sub.chaos_set_right(LabeledRef{*Label::parse("0111"), kSelf});  // self!
  sub.chaos_set_left(LabeledRef{*Label::parse("001"), sim::NodeId{5}});
  sub.timeout();
  EXPECT_FALSE(sub.right().has_value());
  ASSERT_TRUE(sub.left().has_value());  // real neighbors untouched
}

TEST(Regression, SelfReferenceInShortcutSlotIsNulled) {
  CapturingSink sink;
  ssps::Rng rng(4);
  SubscriberProtocol sub(kSelf, kSup, sink, rng);
  sub.chaos_set_label(*Label::parse("01"));
  sub.chaos_set_left(LabeledRef{*Label::parse("0011"), sim::NodeId{5}});
  sub.chaos_set_right(LabeledRef{*Label::parse("0101"), sim::NodeId{6}});
  sub.chaos_put_shortcut(*Label::parse("001"), kSelf);  // expected label, self ref
  sub.timeout();
  ASSERT_TRUE(sub.shortcuts().contains(*Label::parse("001")));
  EXPECT_TRUE(sub.shortcuts().at(*Label::parse("001")).is_null());
}

TEST(Regression, SelfReferencedSystemConverges) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 13, .fd_delay = 0});
  const auto ids = sys.add_subscribers(10);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  // Give half the nodes self-edges under random labels.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    sys.subscriber(ids[i]).chaos_set_right(
        LabeledRef{Label(static_cast<std::uint64_t>(i) * 7 % 32, 5), ids[i]});
  }
  const auto rounds = sys.run_until_legit(2000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
}

}  // namespace
}  // namespace ssps::core
