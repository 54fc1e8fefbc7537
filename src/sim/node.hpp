// Node base class: a peer of the overlay running actions (paper §1.1).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "sim/message.hpp"
#include "sim/message_pool.hpp"
#include "sim/types.hpp"

namespace ssps::common {
class Encoder;
class Decoder;
}  // namespace ssps::common

namespace ssps::sim {

class Network;

/// One tag per node kind, for checked static downcasts (Network::node_as).
/// The sim layer defines the universe of kinds so a single byte covers
/// every layer; kOther is for ad-hoc nodes (tests) which fall back to
/// dynamic_cast.
enum class NodeKind : std::uint8_t {
  kOther = 0,
  // core/
  kSubscriber,
  kSupervisor,
  // pubsub/
  kPubSub,  // SubscriberNode specialized with the Algorithm 5 layer
  kMultiTopicClient,
  kMultiTopicSupervisor,
};

/// A protocol participant.
///
/// Concrete nodes implement the two action entry points of the model:
/// message-triggered actions (`handle`) and the periodically executed
/// `timeout` action. Nodes send messages exclusively through the Network
/// reference supplied at registration; they hold no pointers to peers,
/// only NodeId references (compare-store-send discipline).
///
/// Node classes meant for fast typed access pass their NodeKind up this
/// constructor and define `static bool classof(NodeKind)` accepting their
/// own kind plus every derived kind (the LLVM isa<> idiom); node_as then
/// resolves them with one byte compare instead of a dynamic_cast.
class Node {
 public:
  virtual ~Node() = default;

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }

  /// Processes one incoming message (removed from this node's channel).
  virtual void handle(PooledMsg msg) = 0;

  /// The periodic Timeout action (weakly fair execution is guaranteed by
  /// the schedulers).
  virtual void timeout() = 0;

  /// Appends all node references in this node's *local variables* to `out`
  /// (the paper's explicit edges). Used for connectivity/legitimacy checks.
  virtual void collect_refs(std::vector<NodeId>& out) const { (void)out; }

  /// Called once by the Network after id/net/rng are assigned; nodes that
  /// need their identity to finish construction hook in here.
  virtual void on_register() {}

  /// Serializes the node's recoverable protocol state into `enc`
  /// (canonical encoding, common/encode.hpp). Returns false when the node
  /// does not support snapshots (the default); the Network then keeps no
  /// snapshot for it. Used by the periodic snapshot engine
  /// (Network::enable_snapshots) to capture crash-recovery checkpoints.
  virtual bool snapshot_state(common::Encoder& enc) const {
    (void)enc;
    return false;
  }

  /// Restores state from a snapshot previously produced by
  /// snapshot_state — possibly STALE (taken rounds before the crash) and
  /// possibly CORRUPTED (fault injection mangles stored snapshots too).
  /// Must be total: on malformed input, return false leaving the node in
  /// a valid (if arbitrary) state; self-stabilization recovers from
  /// whatever was restored. Called by Network::recover after
  /// on_register.
  virtual bool restore_state(common::Decoder& dec) {
    (void)dec;
    return false;
  }

  /// Snapshot of this node's private randomness stream. The model
  /// checker's canonical state hash includes it: two states that agree on
  /// every protocol variable but differ in pending randomness can still
  /// diverge later, so they must not be deduplicated.
  std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }

  /// This node's randomness stream as a value, and the way back to it:
  /// the model checker's checkpoints save the stream with the node's
  /// protocol objects and put it back on restore. The protocol objects
  /// keep pointing at the same stream object; only its state changes.
  const ssps::Rng& rng_stream() const { return rng_; }
  void set_rng_stream(const ssps::Rng& rng) { rng_ = rng; }

 protected:
  explicit Node(NodeKind kind = NodeKind::kOther) : kind_(kind) {}

  Network& net() const { return *net_; }
  ssps::Rng& rng() { return rng_; }

 private:
  friend class Network;
  NodeId id_ = NodeId::null();
  Network* net_ = nullptr;
  NodeKind kind_;
  ssps::Rng rng_{0};
};

}  // namespace ssps::sim
