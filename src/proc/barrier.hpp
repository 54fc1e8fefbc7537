// BarrierTracker: the coordinator's per-round barrier bookkeeping as a
// pure, I/O-free state machine, so the awkward cases — a process crashing
// mid-round, a slow joiner acking last, duplicate acks from a retrying
// peer — are unit-testable without sockets or forked processes.
//
// One tracker survives the whole run; begin_round arms it for the next
// barrier. The coordinator runs no replica, so no digest is known in
// advance: the first accepted ack of a round fixes the round's digest,
// and every later ack of that round (duplicates and a respawned shard's
// rejoin ack included) must carry the same one. With at least two
// daemons, every barrier digest is thereby checked by a second replica.
// A round completes when every shard either acked the current round or
// has been marked dead; the caller then respawns dead shards before
// releasing the barrier. Divergence — a digest disagreement, an ack for a
// round the barrier isn't at, or a relay count disagreeing with the ack's
// claim — is sticky: a diverged fleet must abort, not limp on.
//
// Which shard diverged is not which one acked second: the tracker keeps
// every shard's digest, so once a disagreeing round has completed,
// odd_shards() names the shards a strict majority outvotes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ssps::proc {

class BarrierTracker {
 public:
  explicit BarrierTracker(std::size_t shards);

  /// Arms the barrier for `round`; its first accepted ack fixes the digest
  /// every other ack of the round must carry.
  void begin_round(std::uint64_t round);

  enum class Ack {
    kAccepted,        ///< first ack of this shard for the current round
    kDuplicate,       ///< already acked this round; counted once
    kStale,           ///< ack for an already-released round; ignored
    kWrongRound,      ///< ack from the future — protocol violation
    kDigestMismatch,  ///< disagrees with the round's first accepted digest,
                      ///< or with the shard's own earlier ack; recorded
  };

  /// Processes one RoundDone{round, digest} from `shard`.
  Ack round_done(std::size_t shard, std::uint64_t round, std::uint64_t digest);

  /// Records one relay frame received from `shard` this round; checked
  /// against the ack's claimed count in verify_relay_counts().
  void count_relay(std::size_t shard) { relays_seen_[shard] += 1; }

  /// The relay count `shard`'s ack claimed (valid once acked).
  void claim_relays(std::size_t shard, std::uint64_t count) {
    relays_claimed_[shard] = count;
  }

  /// Marks `shard` dead (killed). Its ack is no longer awaited and its
  /// received relays no longer checked.
  void mark_dead(std::size_t shard);

  /// Back alive after a respawn: the respawned replica re-acks the
  /// current round, with its own relays, before the barrier releases, so
  /// the shard's ack and relay counts start over. The round's digest
  /// stays fixed.
  void mark_alive(std::size_t shard);

  /// True when every shard is accounted for (acked or dead).
  bool complete() const;

  /// Called once the barrier completes: true when every acked shard's
  /// received relay count equals the count its ack claimed. A mismatch
  /// (a lost or injected relay frame) marks the fleet diverged.
  bool verify_relay_counts();

  /// Shards neither acked nor dead (the slow joiners still awaited).
  std::vector<std::size_t> missing() const;

  /// The digest `shard` acked the current round with (valid once acked).
  std::uint64_t digest_of(std::size_t shard) const { return digests_[shard]; }

  /// The digest a strict majority of the shards acked the current round
  /// with, if one did.
  std::optional<std::uint64_t> majority_digest() const;

  /// Once the round has completed: the shards to blame, in shard order —
  /// empty when every ack agreed. Those whose digest differs from the
  /// majority's and any that acked two different digests; with no strict
  /// majority (two daemons, or a tie), every acked shard.
  std::vector<std::size_t> odd_shards() const;

  /// Sticky divergence flag (digest mismatch, future-round ack, or a
  /// relay count mismatch detected by verify_relay_counts()).
  bool diverged() const { return diverged_; }

 private:
  std::uint64_t round_ = 0;
  /// The round's digest, once its first ack is accepted.
  std::optional<std::uint64_t> digest_;
  bool diverged_ = false;
  std::vector<std::uint8_t> acked_;
  /// Per shard, the digest of its accepted ack this round, and whether it
  /// later acked the round with another one.
  std::vector<std::uint64_t> digests_;
  std::vector<std::uint8_t> self_conflict_;
  std::vector<std::uint8_t> dead_;
  std::vector<std::uint64_t> relays_seen_;
  std::vector<std::uint64_t> relays_claimed_;
};

}  // namespace ssps::proc
