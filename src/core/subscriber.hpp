// Subscriber half of BuildSR (Algorithms 1, 2 and 4; §2.2, §3.2).
//
// A subscriber maintains
//   - its label (assigned by the supervisor, possibly stale or ⊥),
//   - its direct ring neighbors left/right and the cyclic closure edge
//     `ring` (held by the believed minimum/maximum),
//   - its shortcut table, keyed by the labels derived locally via the
//     mirror chains of §3.2.2,
// and stabilizes them by linearization with label correction (extended
// BuildRing, Lemma 4), supervisor configuration merging (action (iii)),
// probabilistic configuration requests (actions (i), (ii), (iv)) and the
// level-k shortcut introductions (Lemma 12).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "core/shortcuts.hpp"

namespace ssps::core {

/// Lifecycle of a subscriber with respect to the supervisor.
enum class SubscriberPhase : std::uint8_t {
  kActive,    ///< participating (default)
  kLeaving,   ///< unsubscribe requested, waiting for permission
  kDeparted,  ///< permission received; protocol instance is shut down
};

/// The per-topic protocol state machine run by every subscriber.
///
/// This object is deliberately independent of sim::Node so that a node can
/// run many instances (one per subscribed topic, §4). All outgoing traffic
/// goes through the MessageSink; all randomness through the supplied Rng.
class SubscriberProtocol {
 public:
  SubscriberProtocol(sim::NodeId self, sim::NodeId supervisor, MessageSink& sink,
                     ssps::Rng& rng);

  // ---- Actions (the paper's protocol surface) -------------------------

  /// The periodic Timeout action (Algorithm 4 plus Algorithms 1–2 parts).
  void timeout();

  /// Dispatches one incoming message; returns false if the message is not
  /// a BuildSR message (callers may then try other protocol layers).
  bool handle(const sim::Message& m);

  /// User-level unsubscribe: switches to kLeaving and starts asking the
  /// supervisor for permission (§4.1).
  void request_unsubscribe();

  // ---- Observable state (tests, legitimacy checks, pub-sub layer) -----

  sim::NodeId self() const { return self_; }
  sim::NodeId supervisor() const { return supervisor_; }
  SubscriberPhase phase() const { return phase_; }
  bool departed() const { return phase_ == SubscriberPhase::kDeparted; }

  /// Monotone state version: bumped on every observable change to the
  /// protocol variables (phase, label, left/right/ring, shortcut table),
  /// including the chaos/scramble hooks. In a converged system no Timeout
  /// and no steady-state message moves it, so an incremental legitimacy
  /// probe can skip any node whose version it has already checked.
  ///
  /// Threading: a plain counter, deliberately not atomic. Under the
  /// parallel round scheduler all writes happen on the worker that owns
  /// this node's shard, and every probe runs between rounds — after the
  /// scheduler's round barrier, whose mutex hand-off publishes the
  /// worker's writes (sched/parallel.cpp). Reading versions mid-phase
  /// would be a race *and* meaningless (the round is half-applied).
  std::uint64_t state_version() const { return version_; }

  const std::optional<Label>& label() const { return label_; }
  const std::optional<LabeledRef>& left() const { return left_; }
  const std::optional<LabeledRef>& right() const { return right_; }
  const std::optional<LabeledRef>& ring() const { return ring_; }

  /// Shortcut table: expected label -> node reference (null until known).
  const ShortcutTable& shortcuts() const { return shortcuts_; }

  /// Distinct non-null overlay neighbors (ring edges + shortcuts); the
  /// flooding targets of §4.3.
  std::vector<sim::NodeId> overlay_neighbors() const;

  /// Direct ring neighbors only (left/right/ring, non-null, distinct);
  /// the anti-entropy partner pool of Algorithm 5.
  std::vector<sim::NodeId> ring_neighbors() const;

  /// Allocation-free variant: fills `out` with the distinct non-null ring
  /// neighbors in ascending id order and returns the count (<= 3). The
  /// per-Timeout anti-entropy partner pick runs through this.
  std::size_t ring_neighbors_into(std::array<sim::NodeId, 3>& out) const;

  /// Explicit edges for connectivity analyses.
  void collect_refs(std::vector<sim::NodeId>& out) const;

  /// Serializes every protocol variable (phase, label, ring edges,
  /// shortcut table) in canonical form: the model checker's state
  /// fingerprint, doubling as the subscriber half of the wire-format
  /// draft. Excludes state_version() and the derived-label cache — both
  /// are determined by (or pure memoization of) the encoded variables.
  void encode_state(common::Encoder& enc) const;

  /// Restores every protocol variable from a snapshot produced by
  /// encode_state — possibly stale, possibly corrupted. Total and
  /// transactional: malformed input returns false with the state
  /// untouched. A restored state is just an arbitrary initial state as
  /// far as the protocol is concerned; self-stabilization does the rest.
  bool decode_state(common::Decoder& dec);

  /// Returns every variable to `saved`, a value copy of this same instance
  /// taken earlier: the model checker's checkpoints, which must be exact
  /// (decode_state is the crash-recovery path). Unlike a plain assignment
  /// it keeps state_version() monotone: the return counts as a change.
  void restore(const SubscriberProtocol& saved);

  // ---- Adversarial state injection (tests/benches only) ---------------
  // Self-stabilization quantifies over *arbitrary* initial states; these
  // setters let the chaos generators produce them. They perform no
  // validation beyond basic type invariants.

  void chaos_set_label(std::optional<Label> l) {
    label_ = std::move(l);
    derived_.valid = false;
    touch();
  }
  void chaos_set_left(std::optional<LabeledRef> v) {
    left_ = std::move(v);
    derived_.valid = false;
    touch();
  }
  void chaos_set_right(std::optional<LabeledRef> v) {
    right_ = std::move(v);
    derived_.valid = false;
    touch();
  }
  void chaos_set_ring(std::optional<LabeledRef> v) {
    ring_ = std::move(v);
    derived_.valid = false;
    touch();
  }
  void chaos_put_shortcut(const Label& l, sim::NodeId n) {
    shortcuts_.put(l, n);
    derived_.valid = false;
    touch();
  }
  void chaos_clear_shortcuts() {
    shortcuts_.clear();
    derived_.valid = false;
    touch();
  }
  void chaos_set_phase(SubscriberPhase p) {
    phase_ = p;
    touch();
  }

 private:
  // -- Candidate processing (linearization core) --
  // `trusted` marks candidates stemming from a supervisor configuration:
  // they win equal-label conflicts (the database is the authority; the
  // displaced reference may be a crashed node that can never answer, §3.3).
  void consider(const LabeledRef& c, IntroFlag flag);
  void consider_linear(const LabeledRef& c, bool trusted = false);
  void consider_cyclic(const LabeledRef& c, bool trusted = false);
  /// Re-homes neighbors that ended up on the wrong side of our label.
  void revalidate_sides();
  /// Handles a reference to a node claiming exactly our own r-position.
  void conflict(const LabeledRef& c);
  /// Removes `who` from all local variables.
  void purge(sim::NodeId who);

  // -- Message handlers --
  void on_check(const msg::Check& m);
  void on_introduce(const msg::Introduce& m);
  void on_set_data(const msg::SetData& m);
  void on_introduce_shortcut(const msg::IntroduceShortcut& m);

  // -- Shortcut maintenance (§3.2.2) --
  /// The label of the direct ring neighbor on one side, looking through
  /// `ring` for the believed min/max.
  std::optional<Label> side_source_label(bool left_side) const;
  std::optional<LabeledRef> side_source_ref(bool left_side) const;
  /// Algorithm 4 line 3: make shortcuts_ contain exactly the expected
  /// labels, re-linearizing evicted references.
  void refresh_shortcuts();
  /// Recomputes the derived-label cache when (label, side sources) moved;
  /// returns true when the cache was (re)filled, false on a hit.
  bool ensure_derived_cache() const;
  /// §3.2.2: introduce the two level-k partners to each other.
  void introduce_level_partners();
  /// Resolves the node reference for a (chain-end) partner label.
  std::optional<LabeledRef> partner_ref(bool left_side) const;

  void send_check(const LabeledRef& to, IntroFlag flag);
  LabeledRef self_ref() const;

  /// Records an observable state change (see state_version()). Every write
  /// to phase/label/left/right/ring/shortcuts must be paired with a touch;
  /// tests/core/probe_differential_test.cpp checks the pairing by running
  /// the incremental probe against the exhaustive one on every round of
  /// scrambled executions.
  void touch() { ++version_; }

  sim::NodeId self_;
  sim::NodeId supervisor_;
  MessageSink* sink_;
  ssps::Rng* rng_;

  SubscriberPhase phase_ = SubscriberPhase::kActive;
  std::uint64_t version_ = 1;
  std::optional<Label> label_;
  std::optional<LabeledRef> left_;
  std::optional<LabeledRef> right_;
  std::optional<LabeledRef> ring_;
  ShortcutTable shortcuts_;

  /// Labels derivable from (label_, side-source labels) — the expected
  /// shortcut set and the two level-k partner labels — memoized because
  /// they are recomputed every Timeout but only change on relabeling.
  /// Invariant: valid ⇒ shortcuts_' key set equals `expected` (every key
  /// mutation outside refresh_shortcuts() invalidates).
  struct DerivedCache {
    bool valid = false;
    /// True only while shortcuts_' key set matches `expected`; cleared on
    /// every cache refill, set again by refresh_shortcuts' rebuild. Keeps
    /// partner_ref (which may refill the cache mid-timeout) from masking a
    /// pending table rebuild.
    bool table_synced = false;
    Label self;
    std::optional<Label> left;
    std::optional<Label> right;
    std::vector<Label> expected;
    std::optional<Label> partner_left;
    std::optional<Label> partner_right;
    /// Sorted positions of the partner labels within `expected` (== the
    /// table's key order while table_synced); -1 when the partner is the
    /// ring neighbor itself or absent.
    std::int32_t partner_index_left = -1;
    std::int32_t partner_index_right = -1;
  };
  mutable DerivedCache derived_;
};

}  // namespace ssps::core
