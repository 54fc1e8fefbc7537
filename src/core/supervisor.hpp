// Supervisor half of BuildSR (Algorithm 3; §3.1, §3.3, §4.1).
//
// The supervisor owns the database of (label, subscriber) tuples, hands
// out configurations (pred, label, succ) in a round-robin fashion, repairs
// the four database corruption classes of §3.1, processes subscribe /
// unsubscribe with O(1) messages (Theorem 7), and evicts crashed
// subscribers reported by its eventually-correct failure detector (§3.3).
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "sim/failure_detector.hpp"

namespace ssps::core {

/// The per-topic supervisor state machine.
///
/// Independent of sim::Node for the same reason as SubscriberProtocol: a
/// single supervisor process runs one instance per topic (§4).
class SupervisorProtocol {
 public:
  SupervisorProtocol(sim::NodeId self, MessageSink& sink);

  /// Attaches the failure detector (optional; §3.3).
  void set_failure_detector(const sim::FailureDetector* fd) { fd_ = fd; }

  /// Algorithm 3 Timeout: repair the database, then send one configuration
  /// round-robin.
  void timeout();

  /// Dispatches one incoming message; false if not a supervisor message.
  bool handle(const sim::Message& m);

  // ---- Observable state ------------------------------------------------

  sim::NodeId self() const { return self_; }

  /// The database, keyed by label in ring order (ascending r).
  const std::map<Label, sim::NodeId>& database() const { return db_; }

  std::size_t size() const { return db_.size(); }

  /// Monotone counter bumped on every database mutation (inserts, erases,
  /// relabelings, chaos injection). Incremental legitimacy probes use it as
  /// the database epoch: while it is unchanged, every cached fact derived
  /// from the tuple set stays valid. Plain (non-atomic) like
  /// SubscriberProtocol::state_version, and published the same way: probes
  /// read it only at round barriers of the installed scheduler.
  std::uint64_t db_version() const { return db_version_; }

  /// True when the database satisfies none of the corruption conditions
  /// (i)–(iv) of §3.1: values non-null, node-unique, labels = {l(0..n−1)}.
  bool database_consistent() const;

  /// Label currently assigned to `node`, if recorded.
  std::optional<Label> label_of(sim::NodeId node) const;

  void collect_refs(std::vector<sim::NodeId>& out) const;

  /// Serializes every protocol variable (database, round-robin pointer,
  /// repair bookkeeping) in canonical form: the model checker's state
  /// fingerprint, doubling as the supervisor half of the wire-format
  /// draft. Excludes db_version() — determined by the encoded variables.
  void encode_state(common::Encoder& enc) const;

  /// Restores the protocol variables from a snapshot produced by
  /// encode_state — possibly stale, possibly corrupted. Total and
  /// transactional: malformed input returns false with the state
  /// untouched. A successful restore marks the labels dirty: the
  /// snapshot's database describes membership at capture time, not now,
  /// so the next Timeout re-validates every tuple (evicting subscribers
  /// that died while this supervisor was down).
  bool decode_state(common::Decoder& dec);

  /// Returns every variable to `saved`, a value copy of this same instance
  /// taken earlier: the model checker's checkpoints, which must be exact
  /// (decode_state is the crash-recovery path and dirties the labels).
  /// Unlike a plain assignment it keeps db_version() monotone: the return
  /// counts as a database mutation.
  void restore(const SupervisorProtocol& saved);

  // ---- Adversarial injection (tests/benches only) -----------------------

  /// Inserts a raw tuple, bypassing all invariants (may create duplicates
  /// per node, out-of-range or non-canonical labels).
  void chaos_insert(const Label& label, sim::NodeId node);
  /// Inserts a (label, ⊥) tuple (corruption case (i)).
  void chaos_insert_null(const Label& label);
  void chaos_clear();
  void chaos_set_next(std::uint64_t next) { next_ = next; }

 private:
  void on_subscribe(sim::NodeId who);
  void on_unsubscribe(sim::NodeId who);
  void on_get_configuration(sim::NodeId subject,
                            sim::NodeId requester = sim::NodeId::null());

  /// §3.1 cases (i), (iii), (iv) + §3.3 crash eviction. Runs lazily: a
  /// clean database (the steady state) is validated in O(1). Crash
  /// eviction consumes the network's crash log through a cursor — O(1)
  /// amortized per crash — instead of sweeping the whole database per call
  /// (which made every Subscribe during a cold start O(n), turning
  /// bootstrap into O(n²)).
  void check_labels();
  /// Erases every tuple recorded for `dead`; marks the labels dirty when a
  /// hole was punched.
  void evict(sim::NodeId dead);
  /// §3.1 case (ii): drop duplicate tuples for `who`, keeping the lowest
  /// label.
  void check_multiple_copies(sim::NodeId who);
  /// Sends (pred, label, succ) to the node recorded at `it` (one message).
  void send_configuration(std::map<Label, sim::NodeId>::const_iterator it);
  /// Ring-order neighbors of a label within the database.
  std::optional<LabeledRef> pred_of(const Label& label) const;
  std::optional<LabeledRef> succ_of(const Label& label) const;

  void index_add(sim::NodeId node, const Label& label);
  void index_remove(sim::NodeId node, const Label& label);

  sim::NodeId self_;
  MessageSink* sink_;
  const sim::FailureDetector* fd_ = nullptr;

  /// database ⊂ {0,1}* × V. Key order (r, then len) is the ring order for
  /// canonical labels. Values may be null (⊥) in corrupted states.
  std::map<Label, sim::NodeId> db_;
  /// Reverse index node -> labels (multi-valued in corrupted states).
  std::unordered_map<sim::NodeId, std::vector<Label>> index_;
  /// Round-robin pointer (the `next` variable of Algorithm 3).
  std::uint64_t next_ = 0;
  /// Cleared by chaos injection; when set, check_labels() is a no-op.
  bool labels_clean_ = true;
  /// Crash-log entries already consumed by the eviction path. A node that
  /// re-enters the database after its eviction (stale Subscribe, chaos) is
  /// caught by the dirty-path re-sweep, not by the cursor.
  std::size_t crash_cursor_ = 0;
  /// Database epoch (see db_version()).
  std::uint64_t db_version_ = 0;
};

}  // namespace ssps::core
