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
// state_hash() hashes the same bytes a from-scratch encoding of every
// node and message would give, but re-encodes only what may have changed
// since it last ran. Three caches hold the encodings, and this is when
// each goes stale (the soundness argument of the incremental hash):
//
//   - Node encodings (id, kind, encode_state, trie size and root summary,
//     RNG words). fire(slot) stales only that slot's target: a handler
//     touches only its own node's state and stream — the argument
//     enabled()'s fixed target order rests on. barrier() stales every
//     node (the Timeout sweep acts on all of them), and reset() and
//     replay() stale every node of the rebuilt system. restore() copies
//     the saved encodings back. prime() and check() change no node. The
//     network's RNG words are not cached: prime() draws from that stream.
//   - The primed batch. prime() encodes every grouped slot once and keeps
//     the slot indices sorted by those bytes. A primed slot is never
//     mutated, only delivered or discarded, so enabled() compares cached
//     bytes and state_hash() writes the unfired slots in that order.
//   - The lane. Between two prime() calls the lane only grows, at its end,
//     so state_hash() encodes just the envelopes appended since its last
//     call and inserts each one into the sorted order. prime() empties the
//     cache with the lane; restore() copies the saved one back.
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

#include "oracle/invariants.hpp"
#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"
#include "sched/branch.hpp"
#include "sim/message_pool.hpp"

namespace ssps::mc {

/// 128-bit truncated SHA-256 of the canonical state encoding.
struct StateHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool operator==(const StateHash&) const = default;
};

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
  /// Canonical encodings of in-flight messages (target + name + payload)
  /// in one flat buffer, entry i at spans[i], with `order` listing the
  /// entries in byte order as std::vector<std::uint8_t>'s operator<
  /// defines it: the first differing byte decides, and a proper prefix
  /// sorts first.
  struct Encodings {
    struct Span {
      std::size_t offset = 0;
      std::size_t size = 0;
    };
    std::vector<std::uint8_t> bytes;
    std::vector<Span> spans;
    std::vector<std::uint32_t> order;

    /// Encodes `env` as entry spans.size() and inserts it into `order`.
    /// Aborts with a diagnostic if the message class lacks an encoding —
    /// every protocol message must stay encodable.
    void add(const sim::Envelope& env);
    std::span<const std::uint8_t> at(std::size_t i) const {
      return {bytes.data() + spans[i].offset, spans[i].size};
    }
    /// Writes the `count` entries `keep(index)` accepts at `out` as a
    /// multiset, in common::Encoder's format: the count, then each
    /// encoding length-prefixed, in byte order. Returns the end.
    template <typename Keep>
    std::uint8_t* write(std::uint8_t* out, std::size_t count, Keep keep) const;
    void clear();
  };

  /// One node's canonical encoding, and whether it may be out of date.
  struct NodeEncoding {
    std::vector<std::uint8_t> bytes;
    bool stale = true;
  };

  /// The three caches state_hash() reads (see the file header).
  struct Caches {
    std::vector<NodeEncoding> nodes;  // id order
    Encodings lane;                   // the lane's envelopes hashed so far, in send order
    Encodings batch;                  // the primed batch, by slot index
  };

 public:
  /// An exact copy of one position: every node's protocol objects and RNG
  /// stream, the network's RNG stream and round clock, a clone of every
  /// in-flight message (the lane in send order, the primed batch at its
  /// slot indices), the executor's round bookkeeping and its encoding
  /// caches. The protocol copies point at their own node's sink and RNG,
  /// so a checkpoint is valid only on the system that made it: restore()
  /// refuses one saved before a reset() or replay(). A checkpoint is
  /// reusable: each save() overwrites it, copy-assigning into the
  /// containers the previous save left. It must not outlive its executor,
  /// whose pool holds the message clones.
  class Checkpoint {
   public:
    /// An empty checkpoint, for save() to fill.
    Checkpoint() = default;
    Checkpoint(const Checkpoint&) = delete;
    Checkpoint& operator=(const Checkpoint&) = delete;
    ~Checkpoint();

   private:
    friend class Executor;

    /// One subscriber's protocol objects and RNG stream.
    struct Member {
      core::SubscriberProtocol overlay;
      pubsub::PubSubProtocol pubsub;
      ssps::Rng rng;
    };

    /// Returns every message clone to its pool.
    void release_clones();

    std::uint64_t system_ = 0;
    std::optional<core::SupervisorProtocol> supervisor_;
    ssps::Rng supervisor_rng_{0};
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
    Caches caches_;
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
  /// lane), then copies the saved objects and encoding caches back and
  /// clones the saved messages into the network's pool; the checkpoint
  /// stays usable.
  /// state_version() and db_version() keep counting up.
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
  /// size, per-node and network RNG streams, and the channel multiset
  /// (sorted per-message encodings — sound because every delivery order
  /// of a channel is explored). Mid-round positions additionally cover
  /// the undelivered remainder of the primed batch, so equal hashes mean
  /// equal futures whether taken at a boundary or between fires. Excludes
  /// the round/step clocks and all derived caches/version counters.
  /// Re-encodes only what may have changed since the last call (see the
  /// file header); the hashed bytes are those of a cold encoding.
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
  /// Re-encodes node `index` (of nodes_) into its cache entry.
  void encode_node(std::size_t index);

  Options opt_;
  /// Holds the checkpoints' message clones; outlives every system, so a
  /// checkpoint's messages never dangle when reset() drops the system.
  sim::MessagePool checkpoint_pool_;
  std::unique_ptr<pubsub::PubSubSystem> sys_;
  sched::BranchScheduler* branch_ = nullptr;  // owned by the Network
  /// Counts reset() calls: the system a checkpoint was saved on.
  std::uint64_t system_ = 0;
  /// The subscribers, in id order (the population never changes).
  std::vector<sim::NodeId> members_;
  /// Every node, supervisor included, in id order: the hashed population.
  std::vector<const sim::Node*> nodes_;

  bool primed_ = false;
  std::size_t batch_ = 0;
  std::size_t fired_ = 0;
  std::size_t rounds_ = 0;
  /// fired flags per grouped slot of the current round.
  std::vector<bool> consumed_;

  Caches caches_;
  /// The SHA-256 input, reused so that a warm state_hash() allocates
  /// nothing.
  std::vector<std::uint8_t> state_buf_;
};

}  // namespace ssps::mc
