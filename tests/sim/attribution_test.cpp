// Sender attribution: every in-flight message names the node whose action
// sent it (Envelope::from, the `from` of a trace's kSend), or null when
// the harness sent it — under every engine and worker count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/pubsub_node.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace ssps::sim {
namespace {

using pubsub::PubSubSystem;

/// The `from` of every kSend recorded from event `first` on.
std::vector<NodeId> send_senders(const Trace& trace, std::size_t first) {
  std::vector<NodeId> out;
  for (std::size_t i = first; i < trace.events().size(); ++i) {
    const TraceEvent& ev = trace.events()[i];
    if (ev.kind == TraceEventKind::kSend) out.push_back(ev.from);
  }
  return out;
}

/// A message that names the node whose action made it (null = the
/// harness), independently of the Network's attribution.
struct Made final : MsgBase<Made> {
  NodeId maker;
  bool by_timeout = false;
  int hops = 0;
  Made(NodeId m, bool t, int h) : maker(m), by_timeout(t), hops(h) {}
  std::string_view name() const override { return "Made"; }
};

/// Forwards each message around a ring until its hops run out, and starts
/// a new one on every Timeout; every send names this node as its maker.
class Maker final : public Node {
 public:
  void handle(PooledMsg msg) override {
    const auto* made = msg_cast<Made>(*msg);
    ASSERT_NE(made, nullptr);
    if (made->hops > 0) net().emit<Made>(next, id(), false, made->hops - 1);
  }
  void timeout() override {
    ++timeouts;
    net().emit<Made>(next, id(), true, 2);
  }
  NodeId next;
  std::size_t timeouts = 0;
};

TEST(SenderAttribution, UnequalSpeedsAttributeSendsToTheActingNode) {
  // Under unequal Timeout periods each traced send carries the node whose
  // delivery or Timeout made it, and harness sends carry null. A serial
  // round's lane holds its sends in send order, so the trace's kSend
  // events line up with the lane one to one.
  Network net(3);
  std::vector<NodeId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(net.spawn<Maker>());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    net.node_as<Maker>(ids[i]).next = ids[(i + 1) % ids.size()];
  }
  net.set_max_timeout_period(4);
  Trace trace(1 << 16);
  net.attach_trace(&trace);

  constexpr std::size_t kRounds = 600;
  std::size_t harness_sends = 0;
  std::size_t timeout_sends = 0;
  std::size_t delivery_sends = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (round % 100 == 50) {
      // A harness send between rounds: no action is executing.
      const std::size_t first = trace.events().size();
      net.emit<Made>(ids[round / 100], NodeId::null(), false, 2);
      for (const NodeId from : send_senders(trace, first)) {
        EXPECT_TRUE(from.is_null()) << "harness send at round " << round;
        ++harness_sends;
      }
    }
    const std::size_t first = trace.events().size();
    net.run_unit();
    const std::vector<NodeId> senders = send_senders(trace, first);
    const std::vector<Envelope>& lane = EngineSeam(net).lane();
    ASSERT_EQ(senders.size(), lane.size()) << "round " << round;
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const auto* made = msg_cast<Made>(*lane[i].msg);
      ASSERT_NE(made, nullptr);
      EXPECT_FALSE(made->maker.is_null()) << "round " << round;
      EXPECT_EQ(senders[i].value, made->maker.value) << "round " << round;
      EXPECT_EQ(lane[i].from.value, made->maker.value) << "round " << round;
      ++(made->by_timeout ? timeout_sends : delivery_sends);
    }
  }
  net.attach_trace(nullptr);
  // The ring never filled, so every event index above stayed put.
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(harness_sends, 0u);
  EXPECT_GT(timeout_sends, 0u);
  EXPECT_GT(delivery_sends, 0u);
  std::size_t slow = 0;
  for (const NodeId id : ids) slow += net.node_as<Maker>(id).timeouts < kRounds;
  EXPECT_GT(slow, 0u);
}

/// (to, from) of every in-flight envelope, in canonical order: every
/// segment of the in-flight lane, parked worker lanes included.
std::vector<std::pair<std::uint64_t, std::uint64_t>> in_flight_stamps(Network& net) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EngineSeam(net).for_each_in_flight(
      [&](const Envelope& env) { out.emplace_back(env.to.value, env.from.value); });
  return out;
}

TEST(SenderAttribution, RoundLanesAgreeAcrossWorkerCounts) {
  // The parallel scheduler attributes through each worker's own contexts;
  // its parked delivery and Timeout lanes, read in canonical order, must
  // carry the serial round's senders exactly.
  std::vector<std::unique_ptr<PubSubSystem>> systems;
  std::vector<std::vector<NodeId>> ids;
  for (const unsigned threads : {1u, 4u}) {
    systems.push_back(std::make_unique<PubSubSystem>(
        core::SkipRingSystem::Options{.seed = 11, .fd_delay = 0}));
    systems.back()->net().set_threads(threads);
    ids.push_back(systems.back()->add_pubsub_subscribers(128));
  }
  std::size_t node_sends = 0;
  for (std::size_t round = 0; round < 80; ++round) {
    if (round % 20 == 10) {
      for (std::size_t s = 0; s < systems.size(); ++s) {
        Network& net = systems[s]->net();
        const std::size_t before = in_flight_stamps(net).size();
        systems[s]->pubsub(ids[s][round]).publish("p" + std::to_string(round));
        // Harness sends append after everything in flight.
        const auto stamps = in_flight_stamps(net);
        ASSERT_GT(stamps.size(), before) << "round " << round;
        for (std::size_t i = before; i < stamps.size(); ++i) {
          EXPECT_EQ(stamps[i].second, 0u) << "harness publish at round " << round;
        }
      }
    }
    for (auto& sys : systems) sys->net().run_unit();
    const auto serial = in_flight_stamps(systems[0]->net());
    ASSERT_EQ(serial, in_flight_stamps(systems[1]->net())) << "round " << round;
    // After a round the lane holds only what the round's actions sent.
    for (const auto& [to, from] : serial) {
      EXPECT_NE(from, 0u) << "round " << round << ": send to " << to << " has no sender";
    }
    node_sends += serial.size();
  }
  EXPECT_GT(node_sends, 0u);
}

}  // namespace
}  // namespace ssps::sim
