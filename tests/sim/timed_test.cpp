// Event-driven timed network: link model, per-message latency, seeded
// loss/duplication/reordering, partitions, and the round-equivalence of
// the default profile (sim/link.hpp, sched::TimedScheduler). Also how
// long a causal chain takes against its origin's Timeouts, in timed
// intervals and under unequal Timeout periods.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/execution.hpp"
#include "sched/serial.hpp"
#include "sched/timed.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"

namespace ssps::sim {
namespace {

struct Ping final : MsgBase<Ping> {
  int payload = 0;
  explicit Ping(int p) : payload(p) {}
  std::string_view name() const override { return "Ping"; }
};

/// Records deliveries; optionally echoes to a peer (+1000 per hop).
class Probe final : public Node {
 public:
  void handle(PooledMsg msg) override {
    auto* ping = msg_cast<Ping>(*msg);
    ASSERT_NE(ping, nullptr);
    received.push_back(ping->payload);
    if (echo_to) net().emit<Ping>(echo_to, ping->payload + 1000);
  }
  void timeout() override { ++timeouts; }

  std::vector<int> received;
  int timeouts = 0;
  NodeId echo_to = NodeId::null();
};

/// Installs the timed engine on `net`; the network owns it.
sched::TimedScheduler& install_timed(Network& net, TimedConfig cfg = {}) {
  auto timed = std::make_unique<sched::TimedScheduler>(net, std::move(cfg));
  sched::TimedScheduler& engine = *timed;
  net.set_scheduler(std::move(timed));
  return engine;
}

// ---------------------------------------------------------------------------
// Link model
// ---------------------------------------------------------------------------

TEST(LatencySpec, ConstantDrawsNothingFromTheRng) {
  // The round-equivalence argument needs the default profile's link stream
  // to stay untouched: a constant latency must not consume a draw.
  Rng used(7);
  Rng untouched(7);
  LatencySpec constant;  // 1.0 s
  EXPECT_EQ(constant.sample_ticks(used), kTicksPerInterval);
  EXPECT_EQ(used.next(), untouched.next());
}

TEST(LatencySpec, SamplesRespectTheCausalityFloorAndCeiling) {
  Rng rng(11);
  LatencySpec zero{LatencySpec::Dist::kConstant, 0.0, 0.0};
  EXPECT_EQ(zero.sample_ticks(rng), 1u);  // never same-instant delivery
  LatencySpec negative{LatencySpec::Dist::kConstant, -3.0, 0.0};
  EXPECT_EQ(negative.sample_ticks(rng), 1u);
  LatencySpec huge{LatencySpec::Dist::kConstant, 1e9, 0.0};
  EXPECT_EQ(huge.sample_ticks(rng), 60u * kTicksPerInterval);
  LatencySpec uniform{LatencySpec::Dist::kUniform, 0.1, 0.5};
  LatencySpec lognormal{LatencySpec::Dist::kLognormal, -2.5, 0.5};
  for (int i = 0; i < 1000; ++i) {
    const Step u = uniform.sample_ticks(rng);
    EXPECT_GE(u, 100u);
    EXPECT_LE(u, 500u);
    const Step l = lognormal.sample_ticks(rng);
    EXPECT_GE(l, 1u);
    EXPECT_LE(l, 60u * kTicksPerInterval);
  }
}

TEST(TimedConfig, ZonesPartitionWindowsAndDirections) {
  TimedConfig cfg;
  cfg.zones = 3;
  // Node ids map round-robin: 1 -> zone 0, 2 -> zone 1, 3 -> zone 2, ...
  EXPECT_EQ(cfg.zone_of(NodeId{1}), 0u);
  EXPECT_EQ(cfg.zone_of(NodeId{2}), 1u);
  EXPECT_EQ(cfg.zone_of(NodeId{4}), 0u);

  PartitionWindow w;
  w.from_s = 2;
  w.to_s = 5;
  w.zone_a = 0;
  w.zone_b = 1;
  w.bidirectional = false;
  cfg.partitions.push_back(w);

  const NodeId a{1};  // zone 0
  const NodeId b{2};  // zone 1
  const NodeId c{3};  // zone 2
  // Window boundaries: [2 s, 5 s) on the send tick.
  EXPECT_FALSE(cfg.partitioned(a, b, 2 * kTicksPerInterval - 1));
  EXPECT_TRUE(cfg.partitioned(a, b, 2 * kTicksPerInterval));
  EXPECT_TRUE(cfg.partitioned(a, b, 5 * kTicksPerInterval - 1));
  EXPECT_FALSE(cfg.partitioned(a, b, 5 * kTicksPerInterval));
  // Directional cut: b -> a still flows; unrelated zones untouched.
  EXPECT_FALSE(cfg.partitioned(b, a, 3 * kTicksPerInterval));
  EXPECT_FALSE(cfg.partitioned(a, c, 3 * kTicksPerInterval));
  cfg.partitions[0].bidirectional = true;
  EXPECT_TRUE(cfg.partitioned(b, a, 3 * kTicksPerInterval));
}

// ---------------------------------------------------------------------------
// Timed engine
// ---------------------------------------------------------------------------

TEST(TimedNetwork, DefaultProfileMatchesRoundDeliveries) {
  // Same seed, same sends: the timed engine under the default profile must
  // reproduce the round scheduler's delivery sequence exactly.
  auto run = [](bool timed) {
    Network net(91);
    const NodeId a = net.spawn<Probe>();
    const NodeId b = net.spawn<Probe>();
    net.node_as<Probe>(a).echo_to = b;
    net.node_as<Probe>(b).echo_to = a;
    if (timed) install_timed(net);
    for (int i = 0; i < 8; ++i) net.emit<Ping>(a, i);
    net.run_units(6);
    return std::pair{net.node_as<Probe>(a).received, net.node_as<Probe>(b).received};
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TimedNetwork, VirtualClockTicksOneSecondPerInterval) {
  Network net(5);
  net.spawn<Probe>();
  const sched::TimedScheduler& timed = install_timed(net);
  EXPECT_EQ(timed.now_ticks(), 0u);
  net.run_units(3);
  EXPECT_EQ(timed.now_ticks(), 3 * kTicksPerInterval);
  EXPECT_EQ(net.round(), 3u);
}

TEST(TimedNetwork, LossDropsNodeTrafficButSparesHarnessSends) {
  TimedConfig cfg;
  cfg.local.loss = 1.0;
  Network net(6);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  net.node_as<Probe>(a).echo_to = b;
  const sched::TimedScheduler& timed = install_timed(net, cfg);
  // Harness sends are fault-exempt (the experiment's control plane), so
  // the ping reaches a; a's echo is node traffic and is eaten.
  net.emit<Ping>(a, 1);
  net.run_units(3);
  ASSERT_EQ(net.node_as<Probe>(a).received.size(), 1u);
  EXPECT_TRUE(net.node_as<Probe>(b).received.empty());
  EXPECT_EQ(timed.dropped(), 1u);
}

TEST(TimedNetwork, DuplicationDeliversACloneOnce) {
  TimedConfig cfg;
  cfg.local.duplicate = 1.0;
  Network net(7);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  net.node_as<Probe>(a).echo_to = b;
  const sched::TimedScheduler& timed = install_timed(net, cfg);
  net.emit<Ping>(a, 1);
  net.run_units(3);
  // Original + exactly one clone (clones are not themselves re-duplicated).
  EXPECT_EQ(net.node_as<Probe>(b).received, (std::vector<int>{1001, 1001}));
  EXPECT_EQ(timed.duplicated(), 1u);
}

TEST(TimedNetwork, PartitionCutsCrossZoneTrafficUntilHealed) {
  TimedConfig cfg;
  cfg.zones = 2;
  PartitionWindow w;
  w.from_s = 0;
  w.to_s = 3;
  w.zone_a = 0;
  w.zone_b = 1;
  cfg.partitions.push_back(w);
  Network net(8);
  const NodeId a = net.spawn<Probe>();  // id 1 -> zone 0
  const NodeId b = net.spawn<Probe>();  // id 2 -> zone 1
  net.node_as<Probe>(a).echo_to = b;
  const sched::TimedScheduler& timed = install_timed(net, cfg);

  net.emit<Ping>(a, 1);  // harness sends are partition-exempt too
  net.run_units(3);      // a's echo at tick 1000 falls inside the cut
  EXPECT_TRUE(net.node_as<Probe>(b).received.empty());
  EXPECT_EQ(timed.dropped(), 1u);

  net.emit<Ping>(a, 2);  // echo now sent at tick >= 3000: healed
  net.run_units(3);
  EXPECT_EQ(net.node_as<Probe>(b).received, (std::vector<int>{1002}));
  EXPECT_EQ(timed.dropped(), 1u);
}

TEST(TimedNetwork, FaultyLinksReplayBitIdentically) {
  // Fixed seed + loss + duplication + reordering + jittery latency =>
  // identical delivery traces and identical fault counters.
  auto run = [] {
    TimedConfig cfg;
    cfg.zones = 2;
    cfg.local.latency = {LatencySpec::Dist::kUniform, 0.01, 0.4};
    cfg.remote.latency = {LatencySpec::Dist::kLognormal, -2.0, 0.8};
    for (LinkProfile* p : {&cfg.local, &cfg.remote}) {
      p->loss = 0.2;
      p->duplicate = 0.15;
      p->reorder = 0.25;
    }
    Network net(123);
    std::vector<NodeId> ids;
    for (int i = 0; i < 4; ++i) ids.push_back(net.spawn<Probe>());
    for (int i = 0; i < 4; ++i) {
      net.node_as<Probe>(ids[static_cast<std::size_t>(i)]).echo_to =
          ids[static_cast<std::size_t>((i + 1) % 4)];
    }
    const sched::TimedScheduler& timed = install_timed(net, cfg);
    for (int i = 0; i < 16; ++i) {
      net.emit<Ping>(ids[static_cast<std::size_t>(i % 4)], i);
    }
    net.run_units(12);
    std::vector<std::vector<int>> got;
    for (NodeId id : ids) got.push_back(net.node_as<Probe>(id).received);
    return std::tuple{got, timed.dropped(), timed.duplicated()};
  };
  const auto a = run();
  EXPECT_EQ(a, run());
  // The fault machinery actually engaged.
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
}

TEST(TimedNetwork, CrashDropsQueuedTimedEvents) {
  TimedConfig cfg;
  cfg.local.latency = {LatencySpec::Dist::kConstant, 5.0, 0.0};
  Network net(9);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  net.node_as<Probe>(a).echo_to = b;
  install_timed(net, cfg);
  net.emit<Ping>(a, 1);
  net.run_units(2);  // a's echo is in flight, due ~5 s out
  EXPECT_GT(net.pending_messages(), 0u);
  net.crash(b);
  EXPECT_EQ(net.pending_messages(), 0u);
  net.run_units(6);  // the dead letter must not resurface
  EXPECT_FALSE(net.alive(b));
}

// ---------------------------------------------------------------------------
// Causal chains against Timeout gaps
// ---------------------------------------------------------------------------

struct Hop final : MsgBase<Hop> {
  int left = 0;     // links still to travel
  Round start = 0;  // round when the chain began
  int gap = 0;      // origin's Timeout count when the chain began
  Hop(int l, Round s, int g) : left(l), start(s), gap(g) {}
  std::string_view name() const override { return "Hop"; }
};

/// One member of a forwarding ring. The origin starts a chain of `hops`
/// links on every Timeout; each member forwards a Hop to `next` until it
/// has travelled them all, and the last receiver records the chain.
class ChainNode final : public Node {
 public:
  struct Done {
    Round start = 0;
    Round end = 0;
    int start_gap = 0;  // origin's Timeouts when the chain began
    int end_gap = 0;    // ... and when it completed
  };

  void handle(PooledMsg msg) override {
    auto* hop = msg_cast<Hop>(*msg);
    ASSERT_NE(hop, nullptr);
    if (hop->left > 1) {
      net().emit<Hop>(next, hop->left - 1, hop->start, hop->gap);
    } else {
      done.push_back({hop->start, net().round(), hop->gap, origin->timeouts});
    }
  }
  void timeout() override {
    ++timeouts;
    fired.push_back(net().round());
    if (hops > 0) net().emit<Hop>(next, hops, net().round(), timeouts);
  }

  NodeId next;
  int hops = 0;  // > 0 on the origin only
  const ChainNode* origin = nullptr;
  int timeouts = 0;
  std::vector<Round> fired;  // the round of each Timeout
  std::vector<Done> done;
};

/// A ring of `size` ChainNodes whose first member originates `hops`-link
/// chains; returns the ids (the origin first).
std::vector<NodeId> build_chain_ring(Network& net, std::size_t size, int hops) {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < size; ++i) ids.push_back(net.spawn<ChainNode>());
  const ChainNode& origin = net.node_as<ChainNode>(ids[0]);
  for (std::size_t i = 0; i < size; ++i) {
    auto& node = net.node_as<ChainNode>(ids[i]);
    node.next = ids[(i + 1) % size];
    node.origin = &origin;
  }
  net.node_as<ChainNode>(ids[0]).hops = hops;
  return ids;
}

TEST(TimedScheduler, KHopChainSpansAtLeastKIntervalsUnderEveryProfile) {
  // Handler sends are stamped at the interval end and every latency has a
  // one-tick floor: each causal hop costs a full interval, whatever the
  // profile, and the origin fires once per interval — so a k-hop chain
  // always straddles k - 1 of its origin's Timeouts (under unequal
  // Timeout periods the 3-hop chain below straddles none).
  for (const char* profile : {"default", "lan", "wan", "geo"}) {
    scenario::ExecutionSpec exec;
    ASSERT_TRUE(scenario::apply_latency_profile(exec, profile));
    for (int hops : {1, 3, 5}) {
      Network net(43);
      const std::vector<NodeId> ids = build_chain_ring(net, 3, hops);
      net.set_scheduler(std::make_unique<sched::TimedScheduler>(net, exec.timed));
      net.run_units(40);
      const auto& last = net.node_as<ChainNode>(ids[static_cast<std::size_t>(hops) % 3]);
      ASSERT_FALSE(last.done.empty()) << profile << " hops=" << hops;
      for (const ChainNode::Done& d : last.done) {
        EXPECT_GE(d.end - d.start, static_cast<Round>(hops))
            << profile << " hops=" << hops;
        EXPECT_GE(d.end_gap - d.start_gap, hops - 1) << profile << " hops=" << hops;
      }
    }
  }
}

TEST(TimeoutPeriod, ThreeHopChainCompletesBetweenTwoTimeoutsOfItsOrigin) {
  // Unequal process speeds: the chain origin -> b -> c -> origin takes
  // three rounds, and deliveries are never gated, so an origin whose
  // Timeout fires only every third round or less often sees each of its
  // chains finish before its very next Timeout — three hops ran while
  // the origin did not act. The periods come from the seed's hash, so
  // the test also requires that some seed gives such a slow origin.
  std::size_t slow_origins = 0;
  for (std::uint64_t seed = 41; seed <= 60; ++seed) {
    Network net(seed);
    const std::vector<NodeId> ids = build_chain_ring(net, 3, 3);
    net.set_max_timeout_period(4);
    net.run_units(200);
    const auto& origin = net.node_as<ChainNode>(ids[0]);
    ASSERT_GE(origin.fired.size(), 2u) << "seed " << seed;
    const Round period = origin.fired[1] - origin.fired[0];
    for (std::size_t i = 1; i < origin.fired.size(); ++i) {
      ASSERT_EQ(origin.fired[i] - origin.fired[i - 1], period) << "seed " << seed;
    }
    ASSERT_LE(period, 4u) << "seed " << seed;
    if (period < 3) continue;
    ++slow_origins;
    ASSERT_FALSE(origin.done.empty()) << "seed " << seed;
    for (const ChainNode::Done& d : origin.done) {
      EXPECT_EQ(d.end_gap, d.start_gap) << "seed " << seed << ", chain from " << d.start;
    }
  }
  EXPECT_GT(slow_origins, 0u);
}

TEST(TimedNetworkDeathTest, ReplacingAnEngineThatHoldsMessagesAborts) {
  // The event heap is the engine's own: swapping the engine out while it
  // still holds in-flight messages would strand them — counted pending
  // forever, never delivered — so the Network refuses.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TimedConfig cfg;
  cfg.local.latency = {LatencySpec::Dist::kConstant, 5.0, 0.0};
  Network net(10);
  const NodeId a = net.spawn<Probe>();
  const NodeId b = net.spawn<Probe>();
  net.node_as<Probe>(a).echo_to = b;
  install_timed(net, cfg);
  net.emit<Ping>(a, 1);
  net.run_units(2);  // a's echo sits on the event heap, due ~5 s out
  ASSERT_EQ(net.pending_messages(), 1u);
  EXPECT_DEATH(net.set_scheduler(std::make_unique<sched::SerialScheduler>()),
               "still holds in-flight messages");
}

}  // namespace
}  // namespace ssps::sim
