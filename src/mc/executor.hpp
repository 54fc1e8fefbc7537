// Branch-point executor: a pub-sub deployment the model checker can
// steer, checkpoint and replay.
//
// The executor owns one scrambled small-n PubSubSystem driven through a
// sched::BranchScheduler, and reduces its execution to a deterministic
// function of (options, choice trace):
//
//   - reset() rebuilds the root state from scratch — construct, spawn n
//     subscribers, scramble with the fixed seed — so a choice trace alone
//     names a position, and replay(trace) re-establishes it from the root:
//     the counterexample-replay primitive (ssps_mc --replay).
//   - prime() opens a round; fire(slot) delivers (or, under the seeded
//     mutation, drops) one grouped slot; barrier() closes the round. The
//     flat sequence of fire choices interleaved with kAdvance markers IS
//     the schedule: replay(trace) reproduces any explored state
//     bit-for-bit.
//   - save(checkpoint) copies the current position into a caller-kept
//     checkpoint and restore() puts the executor back there, at a cost
//     that grows with the size of a position, not with the length of its
//     schedule: the explorer's backtracking primitive. A checkpoint copies
//     the protocol objects by value, never through the crash-recovery
//     codec (decode_state dirties the supervisor's labels and the
//     publication store re-inserts, so a decoded node is not the saved
//     one).
//   - enabled() exposes the branch point with partial-order reduction
//     baked in (see the soundness notes on the member).
//   - state_hash() fingerprints the position canonically, which the
//     explorer's visited set and round memo dedupe on.
//
// state_hash() fingerprints a position without re-reading it. Each node's
// canonical encoding (id, kind, encode_state, trie size and root summary,
// RNG words) is digested with hash128 when it is encoded, and so is each
// in-flight message's (target, name, payload) when it enters the lane or
// the primed batch. The fingerprint is then hash128 over ~130 bytes: the
// node digests in id order, the network's RNG words, a boundary/mid-round
// flag, and for the lane and for the batch's unfired slots a count and
// the per-word sum mod 2^64 of their message digests.
//
// Soundness. Two different positions share a fingerprint only if two
// distinct encodings share a 128-bit digest, two different message
// multisets share a (count, sum) pair, or two different fingerprint
// inputs share a hash128 value. On inputs nobody chose to collide each
// happens with probability about 2^-128 per pair of positions, so k
// positions all stay apart except with probability about k^2/2^129: the
// bound a 128-bit truncation of SHA-256 gives on such inputs. The sum is
// a multiset hash that needs no sorting, and it must be a sum. An XOR
// would cancel every pair of byte-identical messages, and rounds carry
// such pairs all the time (enabled() prunes them). A sum weakens only
// where multiplicities differ by a large power of two: c = 2^v * odd more
// copies of one message cost v bits of each 64-bit word, and a round
// holds a few dozen messages.
//
// Stamps. Every change to a node's state (its protocol objects and RNG
// stream) gives the node a fresh stamp from a counter that never rewinds:
// fire(slot) for that slot's target only (a handler touches only its own
// node's state and stream — the argument enabled()'s fixed target order
// rests on), barrier() for every node (the Timeout sweep acts on all of
// them), reset() and replay() for every node of the rebuilt system.
// prime(), check() and state_hash() change no node. Copies carry their
// stamp along, so equal stamps mean equal states, and one rule serves
// three users:
//
//   - A node digest is valid while its stamp matches the node's.
//   - save() skips a node whose copy in the checkpoint already carries the
//     node's stamp: the explorer reuses one checkpoint per search level,
//     and between two saves at a level mostly the fired targets changed.
//   - restore() copies back the protocol objects, RNG stream and digest of
//     only the nodes whose stamp differs from the saved one: between a
//     save and a sibling's restore only the fired targets change, unless
//     the excursion crossed a barrier.
//
// A counter that restore() rewound would hand out a stamp twice, to two
// different states of one node; McExecutor.RestoreNeverReusesAStamp pins
// that trap.
//
// Messages need no stamps of their own. A primed slot is never mutated,
// only delivered or discarded, so prime() encodes and digests every
// grouped slot once (enabled() compares the bytes) and stamps the batch,
// so save() and restore() copy those encodings only across a round
// boundary; fire() subtracts the slot's digest from the unfired sum.
// Between two prime() calls the lane only grows, at its end, so
// state_hash() digests just the envelopes appended since its last call.
// restore() copies both sums back.
//
// Neither path rewinds the Network's metrics or latency counters: restore
// leaves them counting on, and replay's rebuilt system starts them over.
// No state hash, certificate or counterexample reads them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mc/hash128.hpp"
#include "oracle/invariants.hpp"
#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"
#include "sched/branch.hpp"
#include "sim/message_pool.hpp"

namespace ssps::mc {

/// A position's fingerprint: hash128 over the cached node and message
/// digests (see the file header).
using StateHash = Hash128;

struct StateHashOf {
  std::size_t operator()(const StateHash& h) const {
    return static_cast<std::size_t>(h.hi ^ h.lo);
  }
};

/// One choice trace: grouped-slot indices, with kAdvance marking a round
/// boundary (barrier + prime of the next round). A trace replays the
/// exact schedule that produced a state — the counterexample format.
using Trace = std::vector<std::uint32_t>;

/// Trace marker for "close this round, open the next".
inline constexpr std::uint32_t kAdvance = 0xffffffffu;

/// The enabled deliveries at the current branch point.
struct Enabled {
  /// Grouped-slot indices, one per distinguishable delivery.
  std::vector<std::uint32_t> slots;
  /// Choices pruned at this branch point because their message encoding
  /// duplicates a kept slot (delivering either first commutes).
  std::size_t pruned = 0;
};

class Executor {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Subscribers spawned under the one supervisor (n <= 6 stays
    /// exhaustively explorable).
    std::size_t nodes = 3;
    /// Arbitrary-state injection applied to the root. The junk-message
    /// default is deliberately far below ScrambleOptions' own default:
    /// every junk message multiplies the interleaving space.
    oracle::ScrambleOptions scramble{.junk_messages = 2};
    /// Depth bound, in rounds, before a schedule counts as a
    /// counterexample (a search bound, not part of the property).
    std::size_t max_rounds = 24;
    /// Seeded protocol mutation: deliveries of messages with this name()
    /// are silently dropped instead of delivered — a broken transport the
    /// checker must catch. Empty = no mutation.
    std::string drop_message_name;
  };

 private:
  /// A multiset of message digests: how many, and their per-word sum mod
  /// 2^64 (see the file header for why a sum).
  struct DigestSum {
    std::uint64_t count = 0;
    Hash128 sum;

    void add(const Hash128& digest) {
      ++count;
      sum.hi += digest.hi;
      sum.lo += digest.lo;
    }
    void remove(const Hash128& digest) {
      --count;
      sum.hi -= digest.hi;
      sum.lo -= digest.lo;
    }
  };

  /// The primed batch's canonical message encodings (target + name +
  /// payload) by slot index, in one flat buffer, with each slot's digest.
  /// Fixed from prime() to the next prime(), which gives it a fresh stamp.
  struct Batch {
    struct Entry {
      std::size_t offset = 0;
      std::size_t size = 0;
      Hash128 digest;
    };
    std::uint64_t stamp = 0;
    std::vector<std::uint8_t> bytes;
    std::vector<Entry> entries;

    std::span<const std::uint8_t> at(std::size_t i) const {
      return {bytes.data() + entries[i].offset, entries[i].size};
    }
  };

  /// The digest of a node's canonical encoding, and the stamp of the state
  /// it was taken of. Stamps start at 1, so stamp 0 marks none taken.
  struct NodeDigest {
    Hash128 digest;
    std::uint64_t stamp = 0;
  };

 public:
  /// An exact copy of one position: every node's protocol objects and RNG
  /// stream, the network's RNG stream and round clock, a clone of every
  /// in-flight message (the lane in send order, the primed batch at its
  /// slot indices), the executor's round bookkeeping and its digests. The
  /// protocol copies point at their own node's sink and RNG, so a
  /// checkpoint is valid only on the system that made it: restore()
  /// refuses one saved before a reset() or replay(). A checkpoint is
  /// reusable: each save() overwrites it, skipping the nodes whose saved
  /// copy already carries their current stamp and copy-assigning the rest
  /// into the containers the previous save left. It must not outlive its
  /// executor, whose pool holds the message clones.
  class Checkpoint {
   public:
    /// An empty checkpoint, for save() to fill.
    Checkpoint() = default;
    Checkpoint(const Checkpoint&) = delete;
    Checkpoint& operator=(const Checkpoint&) = delete;
    ~Checkpoint();

   private:
    friend class Executor;

    /// One node's saved stamp, RNG stream and digest, in id order. The
    /// protocol objects are in supervisor_ and members_.
    struct Saved {
      std::uint64_t stamp = 0;  // 0: nothing saved yet
      ssps::Rng rng{0};
      NodeDigest digest;
    };
    /// One subscriber's protocol objects.
    struct Member {
      core::SubscriberProtocol overlay;
      pubsub::PubSubProtocol pubsub;
    };

    /// Returns every message clone to its pool.
    void release_clones();

    std::uint64_t system_ = 0;
    std::vector<Saved> nodes_;
    std::optional<core::SupervisorProtocol> supervisor_;
    std::vector<Member> members_;  // subscribers in id order
    ssps::Rng net_rng_{0};
    sim::Round round_ = 0;
    /// Clones owned by the checkpoint: the lane in send order, and the
    /// primed batch by slot index (a null message marks a fired slot).
    std::vector<sim::Envelope> lane_;
    std::vector<sim::Envelope> batch_;
    bool primed_ = false;
    std::size_t fired_ = 0;
    std::size_t rounds_ = 0;
    std::vector<bool> consumed_;
    DigestSum lane_digests_;
    DigestSum unfired_;
    Batch batch_encodings_;
  };

  explicit Executor(const Options& options);

  /// Rebuilds the root state (deterministic for fixed options). Starts
  /// with discard_round(), so the system it drops holds no message outside
  /// its in-flight lane.
  void reset();

  /// Copies the current position (at a boundary or between fires) into
  /// `checkpoint`, first returning the clones of its previous save.
  void save(Checkpoint& checkpoint);

  /// Puts the executor back at the position `checkpoint` saved, which
  /// must come from this executor since its last reset(). First drops
  /// what the current position holds in flight (discard_round() and the
  /// lane), then copies back the objects and digests of every node whose
  /// stamp differs from its saved one, and the message digests, and
  /// clones the saved messages into the network's pool; the checkpoint
  /// stays usable. The state_version() or db_version() of a node copied
  /// back keeps counting up; a node left alone keeps its own.
  void restore(const Checkpoint& checkpoint);

  /// Discards the primed round's unfired slots undelivered (a no-op at a
  /// boundary) and closes the round without its barrier. The executor
  /// then sits at a position no trace names: only reset(), replay() or
  /// restore() may follow.
  void discard_round();

  /// Opens the next round: swaps the in-flight buffer into the grouped
  /// batch (seeded shuffle + group by target). Call at a boundary only.
  void prime();

  /// Closes the round: id-order timeout sweep + round clock. Call only
  /// once every slot of the primed batch has been fired.
  void barrier();

  /// Convenience for the explorer/replayer: barrier() + prime().
  void advance() {
    barrier();
    prime();
  }

  /// The current branch point, with two sound reductions applied:
  ///   1. Target order is fixed: only the lowest-id target with
  ///      undelivered messages offers choices. Deliveries to different
  ///      targets commute — a handler touches only its own node's state
  ///      and everything it sends arrives next round (the grouping
  ///      argument of network.cpp) — so exploring one target order loses
  ///      no behaviors.
  ///   2. Slots of that target whose message encoding equals an earlier
  ///      remaining slot's are pruned: delivering byte-identical messages
  ///      to the same node in either order is the same execution.
  /// Empty slots = the round is drained (advance to branch again).
  Enabled enabled();

  /// Fires grouped slot `slot`: delivers it, or discards it when the
  /// mutation matches. The slot must be a remaining slot of this round.
  void fire(std::uint32_t slot);

  /// reset() + re-application of `trace` (fires and kAdvance markers).
  /// After it the executor sits exactly where the recorded schedule left
  /// off — the counterexample-replay primitive, and the reference the
  /// tests hold restore() to.
  void replay(const Trace& trace);

  /// Canonical fingerprint of the current position: every node's protocol
  /// variables (core::*::encode_state), publication-store root digest +
  /// size, per-node and network RNG streams, and the channel contents as
  /// a multiset of per-message digests (sound because every delivery
  /// order of a channel is explored). Mid-round positions additionally
  /// cover the undelivered remainder of the primed batch, so equal hashes
  /// mean equal futures whether taken at a boundary or between fires.
  /// Excludes the round/step clocks and all derived caches/version
  /// counters. Digests only the nodes whose stamp moved and the messages
  /// sent since the last call (see the file header); the result is that
  /// of a cold encoding.
  StateHash state_hash();

  /// Oracle sweep of the current state (the accepting predicate).
  oracle::OracleReport check();

  bool primed() const { return primed_; }
  /// True when every slot of the primed batch has been fired.
  bool drained() const { return fired_ == batch_; }
  /// Rounds closed since reset().
  std::size_t rounds() const { return rounds_; }

  pubsub::PubSubSystem& system() { return *sys_; }

 private:
  /// One node of the hashed population.
  struct Tracked {
    const sim::Node* node = nullptr;
    /// The stamp of the node's current state (see the file header).
    std::uint64_t stamp = 0;
    NodeDigest digest;
  };

  /// A fresh stamp: the clock never rewinds, so no two states share one.
  std::uint64_t next_stamp() { return ++clock_; }
  /// Re-encodes node `index` (of nodes_) and digests the encoding.
  void encode_node(std::size_t index);

  Options opt_;
  /// Holds the checkpoints' message clones; outlives every system, so a
  /// checkpoint's messages never dangle when reset() drops the system.
  sim::MessagePool checkpoint_pool_;
  std::unique_ptr<pubsub::PubSubSystem> sys_;
  sched::BranchScheduler* branch_ = nullptr;  // owned by the Network
  /// Counts reset() calls: the system a checkpoint was saved on.
  std::uint64_t system_ = 0;
  /// The last stamp handed out. Nothing saves or restores it.
  std::uint64_t clock_ = 0;
  /// Every node, supervisor included, in id order: the hashed population
  /// (it never changes).
  std::vector<Tracked> nodes_;

  bool primed_ = false;
  std::size_t batch_ = 0;
  std::size_t fired_ = 0;
  std::size_t rounds_ = 0;
  /// fired flags per grouped slot of the current round.
  std::vector<bool> consumed_;

  /// The lane's envelopes digested so far, in send order: its count is the
  /// next lane index to digest.
  DigestSum lane_digests_;
  /// The primed batch's unfired slots; empty at a boundary.
  DigestSum unfired_;
  Batch batch_encodings_;
  /// One node's or lane message's encoding, then the fingerprint input;
  /// reused so that a warm state_hash() allocates nothing.
  std::vector<std::uint8_t> buffer_;
};

}  // namespace ssps::mc
