// Branch-point executor: a pub-sub deployment the model checker can
// steer, fork and replay.
//
// The executor owns one scrambled small-n PubSubSystem driven through a
// sched::BranchScheduler, and reduces its execution to a deterministic
// function of (options, choice trace):
//
//   - reset() rebuilds the root state from scratch — construct, spawn n
//     subscribers, scramble with the fixed seed. Reconstruction is cheap
//     at model-checking sizes, which is what makes replay-based
//     backtracking (and counterexample replay from a JSON trace) work
//     without any state snapshotting.
//   - prime() opens a round; fire(slot) delivers (or, under the seeded
//     mutation, drops) one grouped slot; barrier() closes the round. The
//     flat sequence of fire choices interleaved with kAdvance markers IS
//     the schedule: replay(trace) reproduces any explored state
//     bit-for-bit.
//   - enabled() exposes the branch point with partial-order reduction
//     baked in (see the soundness notes on the member).
//   - state_hash() fingerprints the boundary state canonically, which the
//     explorer's visited set dedupes on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oracle/invariants.hpp"
#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"
#include "sched/branch.hpp"

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

  explicit Executor(const Options& options);

  /// Rebuilds the root state (deterministic for fixed options). Starts
  /// with discard_round(), so the system it drops holds no message outside
  /// its in-flight lane.
  void reset();

  /// Discards the primed round's unfired slots undelivered (a no-op at a
  /// boundary) and closes the round without its barrier. The executor
  /// then sits at a position no trace names: only reset() or replay() may
  /// follow.
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
  /// off — the backtracking and counterexample-replay primitive.
  void replay(const Trace& trace);

  /// Canonical fingerprint of the current position: every node's protocol
  /// variables (core::*::encode_state), publication-store root digest +
  /// size, per-node and network RNG streams, and the channel multiset
  /// (sorted per-message encodings — sound because every delivery order
  /// of a channel is explored). Mid-round positions additionally cover
  /// the undelivered remainder of the primed batch, so equal hashes mean
  /// equal futures whether taken at a boundary or between fires. Excludes
  /// the round/step clocks and all derived caches/version counters.
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
  /// Canonical encoding of one in-flight message (target + name +
  /// payload). Aborts with a diagnostic if the message class lacks an
  /// encoding — every protocol message must stay encodable.
  std::vector<std::uint8_t> encode_envelope(const sim::Envelope& env) const;

  Options opt_;
  std::unique_ptr<pubsub::PubSubSystem> sys_;
  sched::BranchScheduler* branch_ = nullptr;  // owned by the Network

  bool primed_ = false;
  std::size_t batch_ = 0;
  std::size_t fired_ = 0;
  std::size_t rounds_ = 0;
  /// fired flags per grouped slot of the current round.
  std::vector<bool> consumed_;
};

}  // namespace ssps::mc
