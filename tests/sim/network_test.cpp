// Tests for the simulation substrate: channels, schedulers, fairness,
// crash semantics, determinism, connectivity analysis (§1.1 model).
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

namespace ssps::sim {
namespace {

struct Ping final : MsgBase<Ping> {
  int payload = 0;
  NodeId ref = NodeId::null();
  explicit Ping(int p, NodeId r = NodeId::null()) : payload(p), ref(r) {}
  std::string_view name() const override { return "Ping"; }
  void collect_refs(std::vector<NodeId>& out) const override {
    if (ref) out.push_back(ref);
  }
};

/// Records deliveries and timeouts; optionally echoes to a peer.
class Probe final : public Node {
 public:
  void handle(PooledMsg msg) override {
    auto* ping = msg_cast<Ping>(*msg);
    ASSERT_NE(ping, nullptr);
    received.push_back(ping->payload);
    if (echo_to) net().emit<Ping>(echo_to, ping->payload + 1000);
  }
  void timeout() override {
    ++timeouts;
    fired.push_back(net().round());
  }
  void collect_refs(std::vector<NodeId>& out) const override {
    if (neighbor) out.push_back(neighbor);
  }

  std::vector<int> received;
  int timeouts = 0;
  std::vector<Round> fired;  // the round of each Timeout
  NodeId echo_to = NodeId::null();
  NodeId neighbor = NodeId::null();
};

TEST(Network, SpawnAssignsDistinctIds) {
  Network net(1);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  EXPECT_NE(a, b);
  EXPECT_TRUE(net.alive(a));
  EXPECT_TRUE(net.alive(b));
  EXPECT_EQ(net.alive_count(), 2u);
}

TEST(Network, RoundDeliversAllPendingMessages) {
  Network net(2);
  const NodeId a = net.spawn<Probe>();
  for (int i = 0; i < 5; ++i) net.emit<Ping>(a, i);
  EXPECT_EQ(net.pending_messages(), 5u);
  net.run_unit();
  EXPECT_EQ(net.pending_messages(), 0u);
  EXPECT_EQ(net.node_as<Probe>(a).received.size(), 5u);
}

TEST(Network, MessagesSentDuringARoundArriveNextRound) {
  Network net(3);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  net.node_as<Probe>(a).echo_to = b;
  net.emit<Ping>(a, 1);
  net.run_unit();
  EXPECT_TRUE(net.node_as<Probe>(b).received.empty());  // echo still queued
  net.run_unit();
  ASSERT_EQ(net.node_as<Probe>(b).received.size(), 1u);
  EXPECT_EQ(net.node_as<Probe>(b).received[0], 1001);
}

TEST(Network, EveryNodeTimesOutOncePerRound) {
  Network net(4);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 7; ++i) nodes.push_back(net.spawn<Probe>());
  net.run_units(3);
  for (NodeId id : nodes) EXPECT_EQ(net.node_as<Probe>(id).timeouts, 3);
}

TEST(Network, DeliveryOrderIsNotFifo) {
  // Non-FIFO channels: across many seeds, a 10-message batch must arrive
  // in a non-monotone order at least once (probability of failure
  // ~ (1/10!)^10 ≈ 0).
  bool reordered = false;
  for (std::uint64_t seed = 0; seed < 10 && !reordered; ++seed) {
    Network net(seed);
    const NodeId a = net.spawn<Probe>();
    for (int i = 0; i < 10; ++i) net.emit<Ping>(a, i);
    net.run_unit();
    const auto& got = net.node_as<Probe>(a).received;
    reordered = !std::is_sorted(got.begin(), got.end());
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Network net(seed);
    const NodeId a = net.spawn<Probe>();
    const NodeId b = net.spawn<Probe>();
    net.node_as<Probe>(a).echo_to = b;
    for (int i = 0; i < 20; ++i) net.emit<Ping>(a, i);
    net.run_units(3);
    return net.node_as<Probe>(b).received;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(Network, CrashSwallowsPendingAndFutureMessages) {
  Network net(5);
  const NodeId a = net.spawn<Probe>();
  net.emit<Ping>(a, 1);
  net.crash(a);
  EXPECT_FALSE(net.alive(a));
  EXPECT_EQ(net.pending_messages(), 0u);
  net.emit<Ping>(a, 2);  // must not throw, must vanish
  EXPECT_EQ(net.pending_messages(), 0u);
  net.run_unit();  // and rounds still work
}

TEST(Network, CrashRoundIsRecorded) {
  Network net(6);
  const NodeId a = net.spawn<Probe>();
  net.run_units(4);
  net.crash(a);
  ASSERT_TRUE(net.crash_round(a).has_value());
  EXPECT_EQ(*net.crash_round(a), 4u);
  EXPECT_FALSE(net.crash_round(NodeId{999}).has_value());
}

TEST(Network, TimeoutPeriodLeavesDeliveryAlone) {
  // Fair receipt under unequal speeds: the period gates Timeouts only, so
  // every pending message still arrives in the next round.
  Network net(7);
  const NodeId a = net.spawn<Probe>();
  for (int i = 0; i < 50; ++i) net.emit<Ping>(a, i);
  net.set_max_timeout_period(16);
  net.run_unit();
  EXPECT_EQ(net.node_as<Probe>(a).received.size(), 50u);
}

TEST(Network, TimeoutPeriodBoundsEveryNodesGap) {
  // Weak fairness under unequal speeds: under period k, every alive node
  // fires at least once in any k consecutive rounds.
  for (const Round k : {2, 4, 8, 16}) {
    Network net(8);
    std::vector<NodeId> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(net.spawn<Probe>());
    net.set_max_timeout_period(k);
    constexpr Round kRounds = 64;
    net.run_units(kRounds);
    for (const NodeId id : ids) {
      const std::vector<Round>& fired = net.node_as<Probe>(id).fired;
      ASSERT_FALSE(fired.empty()) << "k=" << k;
      EXPECT_LT(fired.front(), k) << "k=" << k;
      for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_LE(fired[i] - fired[i - 1], k) << "k=" << k;
      }
      EXPECT_GE(fired.back(), kRounds - k) << "k=" << k;
    }
  }
}

TEST(Network, TimeoutPeriodSlowsSomeNode) {
  // ... and the speeds really are unequal: some node skips a round, while
  // period 1 (the default) fires every alive node every round.
  Network net(9);
  std::vector<NodeId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(net.spawn<Probe>());
  net.set_max_timeout_period(4);
  net.run_units(8);
  bool skipped = false;
  for (const NodeId id : ids) skipped |= net.node_as<Probe>(id).timeouts < 8;
  EXPECT_TRUE(skipped);
  std::vector<int> before;
  for (const NodeId id : ids) before.push_back(net.node_as<Probe>(id).timeouts);
  net.set_max_timeout_period(1);
  net.run_units(8);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(net.node_as<Probe>(ids[i]).timeouts, before[i] + 8);
  }
}

/// Changes the Timeout period from inside its own Timeout.
class Meddler final : public Node {
 public:
  void handle(PooledMsg) override {}
  void timeout() override { net().set_max_timeout_period(2); }
};

TEST(NetworkDeathTest, TimeoutPeriodRejectsZeroAndMidRoundCalls) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Network net(16);
  EXPECT_DEATH(net.set_max_timeout_period(0), "need k >= 1");
  net.spawn<Meddler>();
  EXPECT_DEATH(net.run_unit(), "mid-round");
}

/// Changes the topology from its own Timeout: spawns a node, crashes
/// `victim`, or injects a message into `victim`'s channel.
class Mutator final : public Node {
 public:
  enum class Act { kSpawn, kCrash, kInject };
  Mutator(Act act, NodeId victim) : act_(act), victim_(victim) {}
  void handle(PooledMsg) override {}
  void timeout() override {
    switch (act_) {
      case Act::kSpawn:
        net().spawn<Probe>();
        return;
      case Act::kCrash:
        if (net().alive(victim_)) net().crash(victim_);
        return;
      case Act::kInject:
        net().inject(victim_, net().pool().make<Ping>(0));
        return;
    }
  }

 private:
  Act act_;
  NodeId victim_;
};

TEST(NetworkDeathTest, TimeoutsMayNotChangeTheTopologyUnderWorkers) {
  // Timeouts are parallel-phase actions: under more than one worker a
  // spawn, crash or inject from a Timeout aborts, as from a handler. On
  // one worker the Timeout sweep runs on the calling thread and may.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Mutator::Act acts[] = {Mutator::Act::kSpawn, Mutator::Act::kCrash,
                               Mutator::Act::kInject};
  for (const Mutator::Act act : acts) {
    auto run = [act](unsigned threads) {
      Network net(17);
      net.set_threads(threads);
      const NodeId victim = net.spawn<Probe>();
      net.spawn<Mutator>(act, victim);
      net.run_unit();
      return std::make_tuple(net.slot_count(), net.alive(victim), net.pending_messages());
    };
    const auto [slots, victim_alive, pending] = run(1);
    EXPECT_EQ(slots, act == Mutator::Act::kSpawn ? 3u : 2u);
    EXPECT_EQ(victim_alive, act != Mutator::Act::kCrash);
    EXPECT_EQ(pending, act == Mutator::Act::kInject ? 1u : 0u);
    for (const unsigned threads : {2u, 4u}) {
      EXPECT_DEATH(run(threads), "during a parallel round") << threads << " workers";
    }
  }
}

TEST(Network, RunUntilStopsEarly) {
  Network net(10);
  const NodeId a = net.spawn<Probe>();
  const auto rounds =
      net.run_until([&] { return net.node_as<Probe>(a).timeouts >= 3; }, 100);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(*rounds, 3u);
}

TEST(Network, RunUntilReportsFailure) {
  Network net(11);
  net.spawn<Probe>();
  EXPECT_FALSE(net.run_until([] { return false; }, 5).has_value());
}

TEST(Network, RunUntilSkipsPredicateOnQuiescentRounds) {
  // A fully crashed population executes no action, so state cannot change:
  // the wait must evaluate the predicate once, not once per round.
  Network net(19);
  const NodeId a = net.spawn<Probe>();
  net.crash(a);
  int evaluations = 0;
  EXPECT_FALSE(net.run_until(
                      [&] {
                        ++evaluations;
                        return false;
                      },
                      50)
                   .has_value());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(net.round(), Round{50});  // the rounds themselves still ran
}

TEST(Network, RunUntilReevaluatesWhileAnyActionRuns) {
  // Any alive node fires a Timeout each round, so nothing is skipped.
  Network net(20);
  net.spawn<Probe>();
  int evaluations = 0;
  EXPECT_FALSE(net.run_until(
                      [&] {
                        ++evaluations;
                        return false;
                      },
                      5)
                   .has_value());
  EXPECT_EQ(evaluations, 6);  // before each of 5 rounds + the final check
}

TEST(Network, WeaklyConnectedViaExplicitEdges) {
  Network net(12);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  EXPECT_FALSE(net.weakly_connected());
  net.node_as<Probe>(a).neighbor = b;  // a -> b suffices for weak connectivity
  EXPECT_TRUE(net.weakly_connected());
}

TEST(Network, WeaklyConnectedViaImplicitEdges) {
  Network net(13);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  net.inject(a, net.pool().make<Ping>(0, b));  // reference in channel
  EXPECT_TRUE(net.weakly_connected());
}

TEST(Network, WeaklyConnectedViaAnchor) {
  Network net(14);
  net.spawn<Probe>();
  net.spawn<Probe>();
  const NodeId sup = net.spawn<Probe>();
  // The supervisor star (read-only knowledge) connects everything.
  EXPECT_TRUE(net.weakly_connected(sup));
}

TEST(Network, InjectBypassesMetrics) {
  Network net(15);
  const NodeId a = net.spawn<Probe>();
  net.inject(a, net.pool().make<Ping>(1));
  EXPECT_EQ(net.metrics().total_sent(), 0u);
  EXPECT_EQ(net.pending_messages(), 1u);
}

}  // namespace
}  // namespace ssps::sim
