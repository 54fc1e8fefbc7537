// Tests for the slab/arena MessagePool (src/sim/message_pool.hpp):
// recycling (including reclamation of messages queued to crashed nodes),
// a deterministic slot reuse pattern under replay, and a scrambled-start
// run at n = 256 that the CI sanitizer job executes under ASan/UBSan.
#include "sim/message_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"
#include "sim/network.hpp"

namespace ssps::sim {
namespace {

struct Payload final : MsgBase<Payload> {
  std::string body;
  explicit Payload(std::string b) : body(std::move(b)) {}
  std::string_view name() const override { return "Payload"; }
  std::size_t wire_size() const override { return 8 + body.size(); }
};

struct Tiny final : MsgBase<Tiny> {
  int value = 0;
  explicit Tiny(int v) : value(v) {}
  std::string_view name() const override { return "Tiny"; }
};

struct Sink final : Node {
  void handle(PooledMsg) override {}
  void timeout() override {}
};

TEST(MessagePool, TypeIdsAreDistinctAndStamped) {
  MessagePool pool;
  auto a = pool.make<Payload>("x");
  auto b = pool.make<Tiny>(7);
  EXPECT_NE(a->type_id(), 0u);
  EXPECT_NE(b->type_id(), 0u);
  EXPECT_NE(a->type_id(), b->type_id());
  EXPECT_EQ(a->type_id(), msg_type_id<Payload>());
  // Stack-constructed messages carry the tag too.
  const Tiny on_stack(1);
  EXPECT_EQ(on_stack.type_id(), msg_type_id<Tiny>());
  EXPECT_EQ(msg_cast<Tiny>(*a.get()), nullptr);
  EXPECT_NE(msg_cast<Payload>(*a.get()), nullptr);
}

TEST(MessagePool, SlotsAreRecycledLifo) {
  MessagePool pool;
  const Message* first = nullptr;
  {
    auto m = pool.make<Tiny>(1);
    first = m.get();
  }  // destroyed -> slot back on the freelist
  EXPECT_EQ(pool.live(), 0u);
  auto m2 = pool.make<Tiny>(2);
  EXPECT_EQ(m2.get(), first);  // LIFO reuse of the freed slot
  EXPECT_EQ(pool.total_allocated(), 2u);
  EXPECT_EQ(pool.slot_count(), 1u);  // one physical slot ever created
}

TEST(MessagePool, DestructorsRunOnRecycle) {
  // A Payload owns a heap string; destroying the handle must release it
  // (ASan would flag the leak in the sanitizer job otherwise).
  MessagePool pool;
  for (int i = 0; i < 100; ++i) {
    auto m = pool.make<Payload>(std::string(1000, 'x'));
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_LE(pool.slot_count(), 1u);
}

TEST(MessagePool, CrashReclaimsQueuedMessages) {
  // Messages sitting in a crashed node's channel are recycled, not
  // leaked: the pool's live count drops back and the slots are reused by
  // later traffic without growing the arena.
  Network net(3);
  const NodeId a = net.spawn<Sink>();
  const NodeId b = net.spawn<Sink>();
  for (int i = 0; i < 50; ++i) net.emit<Payload>(a, "to-a-" + std::to_string(i));
  for (int i = 0; i < 5; ++i) net.emit<Tiny>(b, i);
  EXPECT_EQ(net.pool().live(), 55u);
  const std::uint64_t slots_before = net.pool().slot_count();
  net.crash(a);
  EXPECT_EQ(net.pool().live(), 5u);  // a's 50 pending messages reclaimed
  // Sends to the dead node are swallowed and recycled immediately.
  net.emit<Payload>(a, "late");
  EXPECT_EQ(net.pool().live(), 5u);
  // New traffic reuses the reclaimed slots: the arena does not grow.
  for (int i = 0; i < 50; ++i) net.emit<Payload>(b, "to-b-" + std::to_string(i));
  EXPECT_EQ(net.pool().slot_count(), slots_before);
  net.run_unit();
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(MessagePool, SizeClassesFollowTheTypeId) {
  // A freed slot is reused by the next message of its class and by no
  // message of another class: destroy() finds the freelist from the
  // message's type_id() alone.
  struct Wide final : MsgBase<Wide> {
    std::array<std::uint64_t, 20> blob{};
    std::string_view name() const override { return "Wide"; }
  };
  static_assert(detail::slot_class_for(sizeof(Tiny)) !=
                detail::slot_class_for(sizeof(Wide)));
  EXPECT_EQ(detail::msg_slot_class[msg_type_id<Tiny>()],
            detail::slot_class_for(sizeof(Tiny)));
  EXPECT_EQ(detail::msg_slot_class[msg_type_id<Wide>()],
            detail::slot_class_for(sizeof(Wide)));
  MessagePool pool;
  const Message* tiny = nullptr;
  {
    auto m = pool.make<Tiny>(1);
    tiny = m.get();
  }
  auto wide = pool.make<Wide>();
  EXPECT_NE(wide.get(), tiny);
  auto again = pool.make<Tiny>(2);
  EXPECT_EQ(again.get(), tiny);
  EXPECT_EQ(pool.slot_count(), 2u);
}

struct SlotRecorder final : Node {
  std::vector<std::uint32_t>* out = nullptr;
  std::map<const Message*, std::uint32_t>* slots = nullptr;
  NodeId peer;
  void handle(PooledMsg m) override {
    // The pooled slot, as delivered, numbered in first-use order: slot
    // addresses differ between runs, their reuse pattern must not.
    out->push_back(slots->try_emplace(m.get(), slots->size()).first->second);
    if (const auto* t = msg_cast<Tiny>(*m)) {
      if (t->value > 0) net().emit<Tiny>(peer, t->value - 1);
      if (t->value % 3 == 0) net().emit<Payload>(peer, "p" + std::to_string(t->value));
    }
  }
  void timeout() override {}
};

TEST(MessagePool, TeardownReleasesNestedOwnershipOnce) {
  // A live TopicEnvelope owns its inner message via a PooledMsg; tearing
  // the pool down must release the inner exactly once (the envelope's
  // destructor does it), never via the raw slot sweep as well. The ASan
  // job turns a regression here into a hard double-free report.
  auto pool = std::make_unique<MessagePool>();
  {
    auto inner = pool->make<Payload>(std::string(64, 'n'));
    auto env = pool->make<pubsub::TopicEnvelope>(1, std::move(inner));
    EXPECT_EQ(pool->live(), 2u);
    env.release();  // still live inside the pool at teardown
  }
  pool.reset();
}

TEST(MessagePool, SlotReuseIsDeterministicUnderReplay) {
  // Two identical runs must reuse slots in the same pattern at delivery:
  // the arena hands out fresh slots sequentially and reuses freed slots
  // LIFO, so which slot a message occupies is a pure function of the
  // (seed, call sequence) — the replay property the scenario engine's
  // bit-identical reports rest on.
  auto run = [](std::uint64_t seed) {
    std::vector<std::uint32_t> slots_seen;
    std::map<const Message*, std::uint32_t> slots;
    Network net(seed);
    const NodeId a = net.spawn<SlotRecorder>();
    const NodeId b = net.spawn<SlotRecorder>();
    for (const NodeId id : {a, b}) {
      net.node_as<SlotRecorder>(id).out = &slots_seen;
      net.node_as<SlotRecorder>(id).slots = &slots;
      net.node_as<SlotRecorder>(id).peer = id == a ? b : a;
    }
    for (int i = 0; i < 8; ++i) net.emit<Tiny>(i % 2 == 0 ? a : b, 20 + i);
    net.run_units(30);
    return slots_seen;
  };
  const auto first = run(11);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run(11));
}

TEST(MessagePool, ScrambledStartAtN256IsCleanAndConverges) {
  // The arbitrary-state injector exercises every message type, enveloped
  // junk, chaos databases and channel garbage. Run it at n = 256 and
  // re-converge; the CI sanitizer job runs this under ASan/UBSan, which
  // certifies that pooled slot recycling never leaks or double-frees.
  pubsub::PubSubSystem sys(core::SkipRingSystem::Options{.seed = 99});
  sys.add_pubsub_subscribers(256);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value());

  oracle::ScrambleOptions options;
  options.seed = 1234;
  options.junk_messages = 512;
  oracle::ArbitraryStateInjector injector(options);
  injector.scramble(sys);

  // Probe sparsely: the full legitimacy check is O(n log n), so checking
  // every round would dominate this test's runtime at n = 256.
  bool recovered = false;
  for (int budget = 0; budget < 6000 && !recovered; budget += 16) {
    sys.net().run_units(16);
    recovered = sys.topology_legit() && sys.publications_converged();
  }
  ASSERT_TRUE(recovered) << sys.legitimacy_violation();
  // Quiescence: every pooled message still alive is accounted for in
  // channels (no lost handles).
  EXPECT_EQ(sys.net().pool().live(), sys.net().pending_messages());
}

}  // namespace
}  // namespace ssps::sim
