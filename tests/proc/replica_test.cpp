// Replica: the lockstep core's determinism properties, exercised
// in-process (no sockets) — lockstep-scheduler transparency, digest
// agreement across replicas, the outbox, relay lookup, byte-verification
// and swap neutrality, lockstep restore events.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "proc/replica.hpp"
#include "scenario/runner.hpp"
#include "sim/network.hpp"

namespace ssps::proc {
namespace {

ScenarioChoice steady_choice() {
  ScenarioChoice choice;
  choice.name = "steady";
  choice.seed = 3;
  choice.nodes = 12;
  choice.oracle = true;
  return choice;
}

scenario::ScenarioSpec spec_of(const ScenarioChoice& choice) {
  scenario::ScenarioSpec spec;
  EXPECT_TRUE(build_scenario(choice, spec));
  return spec;
}

/// `shard`'s outbox this unit as write_outbox lays it out, cut into its
/// control frames (one per relay), each an owning copy.
std::vector<std::vector<std::uint8_t>> outbox_frames(Replica& replica,
                                                     std::size_t shard) {
  std::vector<std::uint8_t> out;
  const std::uint64_t written = replica.write_outbox(
      shard, [&]() -> std::vector<std::uint8_t>& { return out; });
  net::FrameAssembler stream;
  stream.feed(out);
  std::vector<std::vector<std::uint8_t>> frames;
  while (const auto frame = stream.next()) {
    frames.emplace_back(frame->begin(), frame->end());
  }
  EXPECT_EQ(frames.size(), written);
  EXPECT_EQ(stream.buffered(), 0u);
  return frames;
}

/// The Relay a control frame carries: a view into `frame`.
Relay relay_of(const std::vector<std::uint8_t>& frame) {
  const CtrlParse parsed = parse_ctrl(frame);
  EXPECT_TRUE(parsed.ok());
  return std::get<Relay>(parsed.msg.value());
}

TEST(ShardOf, RoundRobinsDenseIds) {
  // Ids are dense from 1 (the supervisor), so 1..procs lands one node on
  // each shard before wrapping.
  EXPECT_EQ(shard_of(sim::NodeId{1}, 3), 0u);
  EXPECT_EQ(shard_of(sim::NodeId{2}, 3), 1u);
  EXPECT_EQ(shard_of(sim::NodeId{3}, 3), 2u);
  EXPECT_EQ(shard_of(sim::NodeId{4}, 3), 0u);
  EXPECT_EQ(shard_of(sim::NodeId{7}, 2), 0u);
}

TEST(BuildScenario, RejectsUnknownNames) {
  scenario::ScenarioSpec spec;
  ScenarioChoice choice;
  choice.name = "no-such-scenario";
  EXPECT_FALSE(build_scenario(choice, spec));
}

TEST(Replica, LockstepIsReportNeutral) {
  // Running the lockstep scheduler instead of the plain serial one must
  // not change a single report byte — that neutrality is what lets a live
  // deployment byte-match plain ssps_run.
  scenario::ScenarioRunner plain(spec_of(steady_choice()));
  const std::string want = plain.run().to_json().dump(2);

  Replica replica(spec_of(steady_choice()), 3);
  std::size_t units = 0;
  replica.install_lockstep([&](std::size_t unit) { EXPECT_EQ(unit, ++units); });
  const std::string got = replica.run().to_json().dump(2);
  EXPECT_GT(units, 0u);
  EXPECT_EQ(got, want);
}

TEST(Replica, DigestSequencesAgreeAcrossReplicas) {
  std::vector<std::uint64_t> digests_a;
  std::vector<std::uint64_t> digests_b;
  for (auto* digests : {&digests_a, &digests_b}) {
    Replica replica(spec_of(steady_choice()), 2);
    replica.install_lockstep([&, digests](std::size_t) {
      digests->push_back(replica.digest());
    });
    replica.run();
  }
  ASSERT_GT(digests_a.size(), 1u);
  EXPECT_EQ(digests_a, digests_b);
}

TEST(Replica, RelaySwapIsReportNeutral) {
  // Route every cross-shard message through the wire codec and swap the
  // decoded copy back in (exactly what a daemon does with relayed bytes):
  // the report must still byte-match the untouched run.
  scenario::ScenarioRunner plain(spec_of(steady_choice()));
  const std::string want = plain.run().to_json().dump(2);

  Replica replica(spec_of(steady_choice()), 3);
  std::size_t swapped = 0;
  replica.install_lockstep([&](std::size_t) {
    for (std::size_t shard = 0; shard < 3; ++shard) {
      for (const std::vector<std::uint8_t>& frame : outbox_frames(replica, shard)) {
        ASSERT_EQ(replica.apply_relay(relay_of(frame)), Replica::RelayCheck::kOk);
        ++swapped;
      }
    }
  });
  const std::string got = replica.run().to_json().dump(2);
  EXPECT_GT(swapped, 0u);
  EXPECT_EQ(got, want);
}

TEST(Replica, WriteOutboxRelaysEachCrossShardSendOnceInLaneOrder) {
  // Across the shards, the outboxes hold one relay per cross-shard send
  // with a sender, each written by its sender's shard, in lane order, and
  // naming its own envelope.
  Replica replica(spec_of(steady_choice()), 3);
  std::size_t checked = 0;
  replica.install_lockstep([&](std::size_t) {
    const std::vector<sim::Envelope>& lane = sim::EngineSeam(replica.net()).lane();
    std::size_t cross_shard = 0;
    for (const sim::Envelope& env : lane) {
      if (!env.from.is_null() && shard_of(env.from, 3) != shard_of(env.to, 3)) {
        ++cross_shard;
      }
    }
    std::size_t relays = 0;
    for (std::size_t shard = 0; shard < 3; ++shard) {
      std::uint64_t last_index = 0;
      bool first = true;
      for (const std::vector<std::uint8_t>& frame : outbox_frames(replica, shard)) {
        const Relay relay = relay_of(frame);
        EXPECT_EQ(shard_of(sim::NodeId{relay.from}, 3), shard);
        EXPECT_NE(shard_of(sim::NodeId{relay.to}, 3), shard);
        EXPECT_TRUE(first || relay.index > last_index);
        ASSERT_LT(relay.index, lane.size());
        EXPECT_EQ(lane[relay.index].from.value, relay.from);
        EXPECT_EQ(lane[relay.index].to.value, relay.to);
        first = false;
        last_index = relay.index;
        ++relays;
      }
    }
    EXPECT_EQ(relays, cross_shard);
    checked += relays;
  });
  replica.run();
  EXPECT_GT(checked, 0u);
}

TEST(Replica, ApplyRelayRejectsForeignAndDamagedFrames) {
  Replica replica(spec_of(steady_choice()), 2);
  bool checked = false;
  replica.install_lockstep([&](std::size_t) {
    if (checked) return;
    std::vector<std::vector<std::uint8_t>> outbox = outbox_frames(replica, 0);
    if (outbox.empty()) outbox = outbox_frames(replica, 1);
    if (outbox.empty()) return;
    checked = true;
    const Relay first = relay_of(outbox[0]);
    const std::size_t lane_size = sim::EngineSeam(replica.net()).lane().size();
    ASSERT_LT(first.index, lane_size);
    // A relay index arrives from another process. Indices past the lane,
    // up to the largest a frame can carry, name no envelope; the
    // _GLIBCXX_ASSERTIONS sanitizer build aborts if the lookup reads the
    // lane there anyway.
    const std::uint64_t past_lane[] = {first.index + 100000, lane_size, UINT64_MAX};
    for (const std::uint64_t index : past_lane) {
      Relay unknown = first;
      unknown.index = index;
      EXPECT_EQ(replica.apply_relay(unknown), Replica::RelayCheck::kUnknown) << index;
    }
    Relay foreign = first;
    foreign.from += 1;  // a real index, sent by another node
    EXPECT_EQ(replica.apply_relay(foreign), Replica::RelayCheck::kUnknown);
    Relay misrouted = first;
    misrouted.to += 1;  // a real index, addressed elsewhere
    EXPECT_EQ(replica.apply_relay(misrouted), Replica::RelayCheck::kUnknown);
    std::vector<std::uint8_t> damaged_bytes(first.frame.begin(), first.frame.end());
    damaged_bytes.back() ^= 0x01;  // bytes disagree with the local envelope
    Relay damaged = first;
    damaged.frame = damaged_bytes;
    EXPECT_EQ(replica.apply_relay(damaged), Replica::RelayCheck::kMismatch);
    Relay truncated = first;
    truncated.frame = first.frame.first(first.frame.size() - 1);
    EXPECT_EQ(replica.apply_relay(truncated), Replica::RelayCheck::kMismatch);
    // A rejected relay leaves the envelope as it was, so the genuine one
    // still matches it.
    EXPECT_EQ(replica.apply_relay(first), Replica::RelayCheck::kOk);
  });
  replica.run();
  EXPECT_TRUE(checked);
}

TEST(Replica, LockstepRestoreKeepsReplicasIdentical) {
  // Two replicas applying the same restore event at the same unit must
  // stay byte-identical through the end of the run (the kill-recovery
  // path's determinism argument), and the oracle must stay green.
  const auto run_with_restore = [](std::string& out_json) {
    Replica replica(spec_of(steady_choice()), 2);
    replica.install_lockstep([&](std::size_t unit) {
      if (unit == 5) replica.apply_restore(1);
    });
    const scenario::ScenarioReport& report = replica.run();
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.oracle_ok);
    out_json = report.to_json().dump(2);
  };
  std::string a;
  std::string b;
  run_with_restore(a);
  run_with_restore(b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ssps::proc
