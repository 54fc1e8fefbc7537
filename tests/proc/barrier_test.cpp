// BarrierTracker: the coordinator's round-barrier bookkeeping under the
// awkward schedules — a process dying mid-round, a slow joiner acking
// last, duplicate acks, digest disagreement between daemons, a respawned
// daemon's rejoin, relay-count audits.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "proc/barrier.hpp"

namespace ssps::proc {
namespace {

constexpr std::uint64_t kDigest = 0xfeedfacecafef00dull;

TEST(BarrierTracker, CompletesWhenEveryShardAcks) {
  BarrierTracker tracker(3);
  tracker.begin_round(1);
  EXPECT_FALSE(tracker.complete());
  EXPECT_EQ(tracker.round_done(0, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(1, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_FALSE(tracker.complete());
  EXPECT_EQ(tracker.missing(), (std::vector<std::size_t>{2}));
  EXPECT_EQ(tracker.round_done(2, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_TRUE(tracker.verify_relay_counts());
  EXPECT_FALSE(tracker.diverged());
}

TEST(BarrierTracker, SlowJoinerOrderDoesNotMatter) {
  // The same acks in every arrival order complete the same barrier.
  const std::size_t orders[][3] = {{0, 1, 2}, {2, 1, 0}, {1, 2, 0}};
  for (const auto& order : orders) {
    BarrierTracker tracker(3);
    tracker.begin_round(4);
    for (const std::size_t shard : order) {
      EXPECT_FALSE(tracker.complete());
      EXPECT_EQ(tracker.round_done(shard, 4, kDigest),
                BarrierTracker::Ack::kAccepted);
    }
    EXPECT_TRUE(tracker.complete());
    EXPECT_FALSE(tracker.diverged());
  }
}

TEST(BarrierTracker, DuplicateAcksCountOnce) {
  BarrierTracker tracker(2);
  tracker.begin_round(1);
  EXPECT_EQ(tracker.round_done(0, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(0, 1, kDigest), BarrierTracker::Ack::kDuplicate);
  EXPECT_EQ(tracker.round_done(0, 1, kDigest), BarrierTracker::Ack::kDuplicate);
  EXPECT_FALSE(tracker.complete());  // shard 1 still owes its ack
  EXPECT_EQ(tracker.round_done(1, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_FALSE(tracker.diverged());
}

TEST(BarrierTracker, CrashMidRoundCompletesViaDead) {
  BarrierTracker tracker(3);
  tracker.begin_round(7);
  EXPECT_EQ(tracker.round_done(0, 7, kDigest), BarrierTracker::Ack::kAccepted);
  // Shard 1's relays arrived but its ack never will: the process died.
  tracker.count_relay(1);
  tracker.count_relay(1);
  tracker.mark_dead(1);
  EXPECT_FALSE(tracker.complete());
  EXPECT_EQ(tracker.round_done(2, 7, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  // A dead shard's truncated relay stream is not a divergence.
  EXPECT_TRUE(tracker.verify_relay_counts());
  EXPECT_FALSE(tracker.diverged());
}

TEST(BarrierTracker, RespawnedShardReacksCurrentRound) {
  BarrierTracker tracker(2);
  tracker.begin_round(9);
  EXPECT_EQ(tracker.round_done(0, 9, kDigest), BarrierTracker::Ack::kAccepted);
  tracker.mark_dead(1);
  EXPECT_TRUE(tracker.complete());
  tracker.mark_alive(1);
  EXPECT_FALSE(tracker.complete());  // back to owing an ack
  EXPECT_EQ(tracker.round_done(1, 9, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_FALSE(tracker.diverged());
}

TEST(BarrierTracker, DigestMismatchIsStickyDivergence) {
  BarrierTracker tracker(2);
  tracker.begin_round(3);
  EXPECT_EQ(tracker.round_done(0, 3, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(1, 3, kDigest + 1),
            BarrierTracker::Ack::kDigestMismatch);
  EXPECT_TRUE(tracker.diverged());
  tracker.begin_round(4);  // divergence survives re-arming
  EXPECT_TRUE(tracker.diverged());
}

TEST(BarrierTracker, MajorityNamesTheOddShardThatAckedFirst) {
  // Shard 1 diverged and happens to ack first, so its digest is the one
  // the round fixes: the two honest shards are the ones that mismatch.
  BarrierTracker tracker(3);
  tracker.begin_round(5);
  EXPECT_EQ(tracker.round_done(1, 5, kDigest ^ 1), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(0, 5, kDigest), BarrierTracker::Ack::kDigestMismatch);
  // The acks keep counting after the mismatch, until the round completes.
  EXPECT_FALSE(tracker.complete());
  EXPECT_EQ(tracker.round_done(2, 5, kDigest), BarrierTracker::Ack::kDigestMismatch);
  EXPECT_TRUE(tracker.complete());
  EXPECT_EQ(tracker.majority_digest(), kDigest);
  EXPECT_EQ(tracker.odd_shards(), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(tracker.diverged());
  // Re-arming clears the round's digests, not the sticky divergence.
  tracker.begin_round(6);
  EXPECT_TRUE(tracker.odd_shards().empty());
  EXPECT_TRUE(tracker.diverged());
}

TEST(BarrierTracker, WithoutAMajorityEveryShardIsNamedWithItsDigest) {
  // Two daemons: when they disagree, nothing tells which one is wrong.
  BarrierTracker tracker(2);
  tracker.begin_round(5);
  EXPECT_EQ(tracker.round_done(1, 5, kDigest ^ 1), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(0, 5, kDigest), BarrierTracker::Ack::kDigestMismatch);
  EXPECT_TRUE(tracker.complete());
  EXPECT_FALSE(tracker.majority_digest().has_value());
  EXPECT_EQ(tracker.odd_shards(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(tracker.digest_of(0), kDigest);
  EXPECT_EQ(tracker.digest_of(1), kDigest ^ 1);
}

TEST(BarrierTracker, AShardThatAcksTwoDigestsIsNamed) {
  // Its first digest agrees with the majority, but it contradicted itself.
  BarrierTracker tracker(3);
  tracker.begin_round(2);
  EXPECT_EQ(tracker.round_done(0, 2, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(0, 2, kDigest ^ 1), BarrierTracker::Ack::kDigestMismatch);
  EXPECT_EQ(tracker.round_done(1, 2, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(2, 2, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_EQ(tracker.majority_digest(), kDigest);
  EXPECT_EQ(tracker.odd_shards(), (std::vector<std::size_t>{0}));
}

TEST(BarrierTracker, FirstAcceptedAckFixesTheDigest) {
  BarrierTracker tracker(3);
  tracker.begin_round(5);
  // A stale ack is ignored, so it fixes nothing.
  EXPECT_EQ(tracker.round_done(2, 4, kDigest + 7), BarrierTracker::Ack::kStale);
  // Whichever shard acks first sets the digest the others must match.
  EXPECT_EQ(tracker.round_done(1, 5, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(0, 5, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(2, 5, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_FALSE(tracker.diverged());
  // The next round's replicas have moved on: its first ack fixes a new
  // digest.
  tracker.begin_round(6);
  EXPECT_EQ(tracker.round_done(2, 6, kDigest + 1), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(0, 6, kDigest + 1), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(1, 6, kDigest), BarrierTracker::Ack::kDigestMismatch);
  EXPECT_TRUE(tracker.diverged());
}

TEST(BarrierTracker, EveryLaterAckMustCarryTheFixedDigest) {
  // A later shard's ack.
  {
    BarrierTracker tracker(3);
    tracker.begin_round(2);
    EXPECT_EQ(tracker.round_done(0, 2, kDigest), BarrierTracker::Ack::kAccepted);
    EXPECT_EQ(tracker.round_done(1, 2, kDigest), BarrierTracker::Ack::kAccepted);
    EXPECT_EQ(tracker.round_done(2, 2, kDigest ^ 1),
              BarrierTracker::Ack::kDigestMismatch);
    EXPECT_TRUE(tracker.diverged());
  }
  // A duplicate ack: the digest is checked before duplicate detection.
  {
    BarrierTracker tracker(2);
    tracker.begin_round(2);
    EXPECT_EQ(tracker.round_done(0, 2, kDigest), BarrierTracker::Ack::kAccepted);
    EXPECT_EQ(tracker.round_done(0, 2, kDigest ^ 1),
              BarrierTracker::Ack::kDigestMismatch);
    EXPECT_TRUE(tracker.diverged());
  }
  // A respawned shard's rejoin ack, after its old process acked.
  {
    BarrierTracker tracker(2);
    tracker.begin_round(2);
    EXPECT_EQ(tracker.round_done(1, 2, kDigest), BarrierTracker::Ack::kAccepted);
    EXPECT_EQ(tracker.round_done(0, 2, kDigest), BarrierTracker::Ack::kAccepted);
    tracker.mark_dead(1);
    tracker.mark_alive(1);
    EXPECT_EQ(tracker.round_done(1, 2, kDigest ^ 1),
              BarrierTracker::Ack::kDigestMismatch);
    EXPECT_TRUE(tracker.diverged());
  }
}

TEST(BarrierTracker, MarkAliveStartsTheShardsRoundOver) {
  BarrierTracker tracker(2);
  tracker.begin_round(6);
  EXPECT_EQ(tracker.round_done(0, 6, kDigest), BarrierTracker::Ack::kAccepted);
  // The doomed shard's relays and ack arrive, then it is killed.
  tracker.count_relay(1);
  tracker.count_relay(1);
  tracker.claim_relays(1, 2);
  EXPECT_EQ(tracker.round_done(1, 6, kDigest), BarrierTracker::Ack::kAccepted);
  tracker.mark_dead(1);
  EXPECT_TRUE(tracker.complete());
  // Its replacement resends the round: the earlier ack and relays no
  // longer count.
  tracker.mark_alive(1);
  EXPECT_FALSE(tracker.complete());
  EXPECT_EQ(tracker.missing(), (std::vector<std::size_t>{1}));
  tracker.count_relay(1);
  tracker.claim_relays(1, 1);
  EXPECT_EQ(tracker.round_done(1, 6, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_TRUE(tracker.verify_relay_counts());
  EXPECT_FALSE(tracker.diverged());
}

TEST(BarrierTracker, FutureRoundAckIsDivergence) {
  BarrierTracker tracker(2);
  tracker.begin_round(3);
  EXPECT_EQ(tracker.round_done(0, 5, kDigest), BarrierTracker::Ack::kWrongRound);
  EXPECT_TRUE(tracker.diverged());
}

TEST(BarrierTracker, StaleAckIsIgnored) {
  BarrierTracker tracker(2);
  tracker.begin_round(3);
  EXPECT_EQ(tracker.round_done(0, 2, kDigest), BarrierTracker::Ack::kStale);
  EXPECT_FALSE(tracker.complete());
  EXPECT_FALSE(tracker.diverged());
}

TEST(BarrierTracker, RelayCountMismatchDiverges) {
  BarrierTracker tracker(2);
  tracker.begin_round(1);
  tracker.count_relay(0);
  tracker.claim_relays(0, 2);  // ack claims 2, only 1 arrived
  EXPECT_EQ(tracker.round_done(0, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_EQ(tracker.round_done(1, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.complete());
  EXPECT_FALSE(tracker.verify_relay_counts());
  EXPECT_TRUE(tracker.diverged());
}

TEST(BarrierTracker, RelayBookkeepingResetsEachRound) {
  BarrierTracker tracker(1);
  tracker.begin_round(1);
  tracker.count_relay(0);
  tracker.claim_relays(0, 1);
  EXPECT_EQ(tracker.round_done(0, 1, kDigest), BarrierTracker::Ack::kAccepted);
  EXPECT_TRUE(tracker.verify_relay_counts());
  tracker.begin_round(2);
  EXPECT_EQ(tracker.round_done(0, 2, kDigest), BarrierTracker::Ack::kAccepted);
  // No relays this round, no stale counts from round 1.
  EXPECT_TRUE(tracker.verify_relay_counts());
  EXPECT_FALSE(tracker.diverged());
}

}  // namespace
}  // namespace ssps::proc
