// Sender attribution: every in-flight message names the node whose action
// sent it (Envelope::from, the `from` of a trace's kSend), or null when
// the harness sent it — under every engine and worker count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/pubsub_node.hpp"
#include "sched/async.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace ssps::sim {
namespace {

using pubsub::PubSubSystem;

/// The `from` of every kSend recorded since the last clear().
std::vector<NodeId> send_senders(const Trace& trace) {
  std::vector<NodeId> out;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEventKind::kSend) out.push_back(ev.from);
  }
  return out;
}

TEST(SenderAttribution, AsyncStepsAttributeSendsToTheActingNode) {
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 3, .fd_delay = 0});
  const std::vector<NodeId> ids = sys.add_pubsub_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  Network& net = sys.net();
  net.set_scheduler(std::make_unique<sched::AsyncScheduler>());
  Trace trace(1 << 16);
  net.attach_trace(&trace);

  std::size_t publish_sends = 0;
  std::size_t timeout_steps = 0;
  std::size_t timeout_sends = 0;
  std::size_t delivery_sends = 0;
  for (std::size_t step = 0; step < 600; ++step) {
    if (step % 100 == 50) {
      // A harness publish between steps: no action is executing.
      trace.clear();
      sys.pubsub(ids[step / 100]).publish("p" + std::to_string(step));
      for (const NodeId from : send_senders(trace)) {
        EXPECT_TRUE(from.is_null()) << "publish at step " << step << " sent as " << from.value;
        ++publish_sends;
      }
    }
    trace.clear();
    const std::size_t delivered = net.run_unit();
    // The node that fired this step's Timeout, if any: its last_timeout
    // is the current step.
    NodeId fired;
    EngineSeam seam(net);
    for (std::size_t i = 0; i < net.slot_count(); ++i) {
      if (seam.alive_at(i) && seam.last_timeout(i) == net.now()) {
        fired = NodeId{i + 1};
      }
    }
    ASSERT_NE(delivered > 0, !fired.is_null()) << "step " << step;
    NodeId acting = fired;
    if (delivered > 0) {
      for (const TraceEvent& ev : trace.events()) {
        if (ev.kind == TraceEventKind::kDeliver) acting = ev.to;
      }
    }
    const std::vector<NodeId> senders = send_senders(trace);
    for (const NodeId from : senders) {
      EXPECT_EQ(from.value, acting.value) << "step " << step;
    }
    if (fired) {
      ++timeout_steps;
      timeout_sends += senders.size();
    } else {
      delivery_sends += senders.size();
    }
  }
  net.attach_trace(nullptr);
  EXPECT_GT(publish_sends, 0u);
  EXPECT_GT(timeout_steps, 0u);
  EXPECT_GT(timeout_sends, 0u);
  EXPECT_GT(delivery_sends, 0u);
}

/// (to, from) of every lane envelope, in lane order.
std::vector<std::pair<std::uint64_t, std::uint64_t>> lane_stamps(Network& net) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Envelope& env : EngineSeam(net).lane()) {
    out.emplace_back(env.to.value, env.from.value);
  }
  return out;
}

TEST(SenderAttribution, RoundLanesAgreeAcrossWorkerCounts) {
  // The parallel scheduler attributes through each worker's own context;
  // its merged lane must carry the serial round's senders exactly.
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
        const std::size_t before = EngineSeam(net).lane().size();
        systems[s]->pubsub(ids[s][round]).publish("p" + std::to_string(round));
        const std::vector<Envelope>& lane = EngineSeam(net).lane();
        for (std::size_t i = before; i < lane.size(); ++i) {
          EXPECT_TRUE(lane[i].from.is_null()) << "harness publish at round " << round;
        }
      }
    }
    for (auto& sys : systems) sys->net().run_unit();
    const auto serial = lane_stamps(systems[0]->net());
    ASSERT_EQ(serial, lane_stamps(systems[1]->net())) << "round " << round;
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
