// Event-driven timed network: link model, per-message latency, seeded
// loss/duplication/reordering, partitions, and the round-equivalence of
// the default profile (sim/link.hpp, sched::TimedScheduler).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
