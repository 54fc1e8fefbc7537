// Asynchronous-scheduler stress: self-stabilization must hold under the
// §1.1 model's full asynchrony, for a range of fairness parameters and
// interleaving biases — not just under synchronous rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/chaos.hpp"
#include "core/system.hpp"
#include "pubsub/pubsub_node.hpp"
#include "scenario/execution.hpp"
#include "sched/async.hpp"
#include "sched/serial.hpp"
#include "sched/timed.hpp"
#include "sim/network.hpp"

namespace ssps::sim {
namespace {

using core::ChaosOptions;
using core::SkipRingSystem;
using sched::AsyncConfig;
using sched::AsyncScheduler;

void install_async(Network& net, AsyncConfig cfg = {}) {
  net.set_scheduler(std::make_unique<AsyncScheduler>(cfg));
}

void install_rounds(Network& net) {
  net.set_scheduler(std::make_unique<sched::SerialScheduler>());
}

struct AsyncCase {
  Step max_age;
  Step max_gap;
  std::uint32_t bias;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<AsyncCase>& info) {
  return "age" + std::to_string(info.param.max_age) + "_gap" +
         std::to_string(info.param.max_gap) + "_bias" + std::to_string(info.param.bias) +
         "_s" + std::to_string(info.param.seed);
}

class AsyncSweep : public ::testing::TestWithParam<AsyncCase> {};

TEST_P(AsyncSweep, CorruptedSystemStabilizesUnderAsynchrony) {
  const auto [age, gap, bias, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  ChaosOptions chaos;
  chaos.seed = seed + 1;
  corrupt_system(sys, chaos);

  install_async(sys.net(), AsyncConfig{.max_message_age = age,
                                        .max_timeout_gap = gap,
                                        .timeout_bias = bias});

  bool legit = false;
  for (int block = 0; block < 400 && !legit; ++block) {
    sys.net().run_units(4000);
    legit = sys.topology_legit();
  }
  EXPECT_TRUE(legit) << sys.legitimacy_violation();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncSweep,
    ::testing::Values(AsyncCase{16, 16, 64, 1},    // tight fairness
                      AsyncCase{256, 256, 64, 2},  // sloppy fairness
                      AsyncCase{64, 64, 8, 3},     // delivery-heavy
                      AsyncCase{64, 64, 240, 4},   // timeout-heavy
                      AsyncCase{512, 32, 64, 5},   // stale messages
                      AsyncCase{32, 512, 64, 6}),  // starved timeouts
    case_name);

struct StepPing final : MsgBase<StepPing> {
  int payload = 0;
  explicit StepPing(int p) : payload(p) {}
  std::string_view name() const override { return "StepPing"; }
};

class StepProbe final : public Node {
 public:
  void handle(PooledMsg msg) override {
    auto* ping = msg_cast<StepPing>(*msg);
    ASSERT_NE(ping, nullptr);
    received.push_back(ping->payload);
    if (echo_to && ping->payload < 3000) {
      net().emit<StepPing>(echo_to, ping->payload + 1000);
    }
  }
  void timeout() override { ++timeouts; }
  std::vector<int> received;
  int timeouts = 0;
  NodeId echo_to = NodeId::null();
};

TEST(AsyncScheduler, FixedSeedPickSequenceIsPinned) {
  // The canonical step()-picking trace for seed 2024: delivery order and
  // per-node timeout counts over 120 steps. Pins the scheduler's fairness
  // decisions — the oldest-message / stalest-timeout indexes and the
  // (sent_at, seq) / (last_timeout, slot) tie-breaks — so a refactor of
  // the O(log n) heap bookkeeping cannot silently change interleavings.
  Network net(2024);
  const NodeId a = net.spawn<StepProbe>();
  const NodeId b = net.spawn<StepProbe>();
  const NodeId c = net.spawn<StepProbe>();
  net.node_as<StepProbe>(a).echo_to = b;
  net.node_as<StepProbe>(b).echo_to = c;
  for (int i = 0; i < 6; ++i) net.emit<StepPing>(a, i);
  install_async(net);
  net.run_units(120);
  EXPECT_EQ(net.node_as<StepProbe>(a).received, (std::vector<int>{3, 4, 5, 0, 2, 1}));
  EXPECT_EQ(net.node_as<StepProbe>(b).received,
            (std::vector<int>{1003, 1002, 1005, 1000, 1004, 1001}));
  EXPECT_EQ(net.node_as<StepProbe>(c).received,
            (std::vector<int>{2003, 2002, 2005, 2000, 2004, 2001}));
  EXPECT_EQ(net.node_as<StepProbe>(a).timeouts, 36);
  EXPECT_EQ(net.node_as<StepProbe>(b).timeouts, 37);
  EXPECT_EQ(net.node_as<StepProbe>(c).timeouts, 29);
}

// ---------------------------------------------------------------------------
// Why the stepper stays beside the timed engine (see sched/async.hpp)
// ---------------------------------------------------------------------------

struct Hop final : MsgBase<Hop> {
  int left = 0;     // links still to travel
  Round start = 0;  // origin's unit clock when the chain began
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
      done.push_back({hop->start, net().unit_now(), hop->gap, origin->timeouts});
    }
  }
  void timeout() override {
    ++timeouts;
    if (hops > 0) net().emit<Hop>(next, hops, net().unit_now(), timeouts);
  }

  NodeId next;
  int hops = 0;  // > 0 on the origin only
  const ChainNode* origin = nullptr;
  int timeouts = 0;
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

TEST(AsyncScheduler, ThreeHopChainCompletesBetweenTwoTimeoutsOfItsOrigin) {
  // Unequal process speeds: the chain origin -> b -> c -> origin finishes
  // before the origin's very next Timeout — three other actions ran while
  // the origin did not.
  Network net(41);
  const std::vector<NodeId> ids = build_chain_ring(net, 3, 3);
  install_async(net);
  net.run_units(2000);
  const auto& done = net.node_as<ChainNode>(ids[0]).done;
  ASSERT_FALSE(done.empty());
  const auto within_one_gap = std::count_if(done.begin(), done.end(), [](const auto& d) {
    return d.end_gap == d.start_gap;
  });
  EXPECT_GT(within_one_gap, 0);
}

TEST(TimedScheduler, KHopChainSpansAtLeastKIntervalsUnderEveryProfile) {
  // Handler sends are stamped at the interval end and every latency has a
  // one-tick floor: each causal hop costs a full interval, whatever the
  // profile, and the origin fires once per interval — so a k-hop chain
  // always straddles k - 1 of its origin's Timeouts (the 3-hop chain
  // above straddled none).
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

TEST(AsyncScheduler, UnitClockFollowsTheInstalledScheduler) {
  // unit_now() (and with it latency/telemetry stamps) reads the step
  // counter while a step-grained scheduler is installed, the round
  // counter otherwise.
  Network net(3);
  net.spawn<StepProbe>();
  net.run_units(2);
  EXPECT_EQ(net.unit_now(), 2u);
  install_async(net);
  EXPECT_EQ(net.unit_now(), 2u);  // two rounds = two steps so far
  net.run_units(37);
  EXPECT_EQ(net.unit_now(), 39u);
  EXPECT_EQ(net.round(), 2u);
  install_rounds(net);
  EXPECT_EQ(net.unit_now(), 2u);
}

TEST(AsyncScheduler, PublicationsConvergeUnderAsynchronyToo) {
  pubsub::PubSubConfig cfg;
  cfg.flooding = false;
  pubsub::PubSubSystem sys(SkipRingSystem::Options{.seed = 31, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(10);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (int i = 0; i < 10; ++i) {
    sys.pubsub(ids[static_cast<std::size_t>(i) % ids.size()])
        .add_local(pubsub::Publication{ids[0], "a" + std::to_string(i)});
  }
  bool done = false;
  install_async(sys.net());
  for (int block = 0; block < 400 && !done; ++block) {
    sys.net().run_units(4000);
    done = sys.publications_converged();
  }
  EXPECT_TRUE(done);
}

TEST(AsyncScheduler, MixedSchedulersInterleave) {
  // Alternating round-based and step-based execution must not confuse the
  // protocol (rounds and steps share the same network state).
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 33, .fd_delay = 0});
  sys.add_subscribers(12);
  ChaosOptions chaos;
  chaos.seed = 34;
  corrupt_system(sys, chaos);
  for (int i = 0; i < 100 && !sys.topology_legit(); ++i) {
    install_async(sys.net());
    sys.net().run_units(500);
    install_rounds(sys.net());
    sys.net().run_unit();
  }
  EXPECT_TRUE(sys.topology_legit()) << sys.legitimacy_violation();
}

TEST(AsyncScheduler, CrashRecoveryUnderAsynchrony) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 35, .fd_delay = 2});
  const auto ids = sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  sys.crash(ids[1]);
  sys.crash(ids[7]);
  // The failure detector is round-based; advance rounds sparsely while the
  // async scheduler does the bulk of the work.
  bool legit = false;
  for (int block = 0; block < 400 && !legit; ++block) {
    install_async(sys.net());
    sys.net().run_units(2000);
    install_rounds(sys.net());
    sys.net().run_unit();
    legit = sys.topology_legit();
  }
  EXPECT_TRUE(legit) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 14u);
}

}  // namespace
}  // namespace ssps::sim
