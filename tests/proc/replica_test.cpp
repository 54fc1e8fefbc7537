// Replica: the lockstep core's determinism properties, exercised
// in-process (no sockets) — lockstep-scheduler transparency, digest
// agreement across replicas, relay lookup, byte-verification and swap
// neutrality, lockstep restore events.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
      for (const Relay& relay : replica.collect_outbox(shard)) {
        ASSERT_EQ(replica.verify_relay(relay), Replica::RelayCheck::kOk);
        ASSERT_EQ(replica.apply_relay(relay), Replica::RelayCheck::kOk);
        ++swapped;
      }
    }
  });
  const std::string got = replica.run().to_json().dump(2);
  EXPECT_GT(swapped, 0u);
  EXPECT_EQ(got, want);
}

TEST(Replica, VerifyRelayRejectsForeignAndDamagedFrames) {
  Replica replica(spec_of(steady_choice()), 2);
  bool checked = false;
  replica.install_lockstep([&](std::size_t) {
    if (checked) return;
    std::vector<Relay> outbox = replica.collect_outbox(0);
    if (outbox.empty()) outbox = replica.collect_outbox(1);
    if (outbox.empty()) return;
    checked = true;
    const std::size_t lane_size = sim::EngineSeam(replica.net()).lane().size();
    ASSERT_LT(outbox[0].index, lane_size);
    // A relay index arrives from another process. Indices past the lane,
    // up to the largest a frame can carry, name no envelope; the
    // _GLIBCXX_ASSERTIONS sanitizer build aborts if the lookup reads the
    // lane there anyway.
    const std::uint64_t past_lane[] = {outbox[0].index + 100000, lane_size, UINT64_MAX};
    for (const std::uint64_t index : past_lane) {
      Relay unknown = outbox[0];
      unknown.index = index;
      EXPECT_EQ(replica.verify_relay(unknown), Replica::RelayCheck::kUnknown) << index;
      EXPECT_EQ(replica.apply_relay(unknown), Replica::RelayCheck::kUnknown) << index;
    }
    Relay foreign = outbox[0];
    foreign.from += 1;  // a real index, sent by another node
    EXPECT_EQ(replica.verify_relay(foreign), Replica::RelayCheck::kUnknown);
    Relay misrouted = outbox[0];
    misrouted.to += 1;  // a real index, addressed elsewhere
    EXPECT_EQ(replica.verify_relay(misrouted), Replica::RelayCheck::kUnknown);
    Relay damaged = outbox[0];
    damaged.frame.back() ^= 0x01;  // bytes disagree with the local envelope
    EXPECT_EQ(replica.verify_relay(damaged), Replica::RelayCheck::kMismatch);
    EXPECT_EQ(replica.verify_relay(outbox[0]), Replica::RelayCheck::kOk);
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
