// Message base class: the ⟨label⟩(⟨parameters⟩) remote action calls of the
// paper's model (§1.1). Concrete protocols subclass Message per action.
#pragma once

#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/encode.hpp"
#include "sim/message_pool.hpp"
#include "sim/types.hpp"

namespace ssps::sim {

/// Base of all protocol messages.
///
/// A message models a remote action invocation. The simulator treats
/// messages as opaque apart from the type tag (dispatch) and three
/// introspection hooks used for metrics (name, wire_size) and for graph
/// analyses that must count implicit edges, i.e. node references
/// travelling inside channels (collect_refs).
///
/// Concrete classes derive through MsgBase<Self> so every instance carries
/// its MsgTypeId; handlers then dispatch with msg_cast — one integer
/// compare plus a static downcast — instead of a dynamic_cast chain.
class Message {
 public:
  virtual ~Message() = default;

  /// Tag of the concrete class (see msg_type_id). 0 for legacy messages
  /// that bypass MsgBase; msg_cast never matches those.
  MsgTypeId type_id() const { return type_id_; }

  /// Type tag under which metrics account this message. Defaults to the
  /// message's own tag; envelope messages re-stamp it with their payload's
  /// tag (set_metrics_type) so per-action accounting stays meaningful
  /// across wrappers. A plain field, not a virtual: the send path resolves
  /// it once per message, and the indirect call showed up in round-loop
  /// profiles.
  MsgTypeId metrics_type() const { return metrics_type_; }

  /// Stable action label, used as the metrics key (e.g. "SetData"). One
  /// label per metrics_type(), in storage that outlives every Metrics:
  /// the counters keep the view (return a string literal).
  virtual std::string_view name() const = 0;

  /// Estimated serialized size in bytes; used for byte accounting in the
  /// anti-entropy cost experiments. The default approximates a header.
  virtual std::size_t wire_size() const { return 16; }

  /// Appends every node reference carried by this message to `out`.
  /// These are the paper's *implicit edges* and take part in connectivity
  /// checks (a reference inside a channel is an edge of G).
  virtual void collect_refs(std::vector<NodeId>& out) const { (void)out; }

  /// Allocates a copy of this message from `pool` (the timed scheduler's
  /// link-duplication fault). MsgBase provides this automatically for
  /// copy-constructible messages; move-only wrappers override it by hand.
  /// A null return means "not clonable" and the duplication is skipped.
  virtual PooledMsg clone_into(MessagePool& pool) const {
    (void)pool;
    return PooledMsg{};
  }

  /// Copies telemetry-only stamps — fields deliberately left off the wire,
  /// like pubsub::Publication::born — from `original`, which the caller
  /// must already have proven byte-identical to this message under
  /// encode(). The deployment layer calls this on a wire-decoded copy
  /// before swapping it into the in-flight lane, so delivery-latency
  /// histograms are unaffected by the swap. Default: no off-wire state.
  virtual void adopt_offwire(const Message& original) { (void)original; }

  /// Appends a canonical byte encoding of this message's payload to `enc`
  /// (common/encode.hpp). The model checker keys channel contents on
  /// name() + this encoding — NOT on type_id(), which is assigned in
  /// first-use order at runtime and is not stable across processes — so
  /// the encoding doubles as the wire-format draft for the messages that
  /// override it. Returns false when the type has no canonical encoding;
  /// the model checker refuses to explore states containing such messages.
  virtual bool encode(common::Encoder& enc) const {
    (void)enc;
    return false;
  }

 protected:
  template <typename Derived, typename Base>
  friend struct MsgBase;

  /// For envelope messages: account this instance under `type` (normally
  /// the wrapped payload's metrics_type()).
  void set_metrics_type(MsgTypeId type) { metrics_type_ = type; }

  MsgTypeId type_id_ = 0;
  MsgTypeId metrics_type_ = 0;
};

/// CRTP shim that stamps the concrete type's tag into every instance
/// (including stack-constructed ones in tests, not just pooled ones).
/// `Base` supports intermediate hierarchies: MsgBase<D, SomeMessageBase>.
template <typename Derived, typename Base = Message>
struct MsgBase : Base {
  template <typename... Args>
  explicit MsgBase(Args&&... args) : Base(std::forward<Args>(args)...) {
    Message::type_id_ = msg_type_id<Derived>();
    Message::metrics_type_ = Message::type_id_;
  }

  PooledMsg clone_into(MessagePool& pool) const override {
    if constexpr (std::is_copy_constructible_v<Derived>) {
      return pool.make<Derived>(static_cast<const Derived&>(*this));
    } else {
      return PooledMsg{};  // move-only payload: override by hand if needed
    }
  }
};

/// Checked downcast by exact type tag: returns nullptr unless `m`'s
/// dynamic type is exactly T. All protocol messages are final classes, so
/// exact matching is the dispatch semantics handlers want.
template <typename T>
const T* msg_cast(const Message& m) {
  return m.type_id() == msg_type_id<T>() ? static_cast<const T*>(&m) : nullptr;
}

template <typename T>
T* msg_cast(Message& m) {
  return m.type_id() == msg_type_id<T>() ? static_cast<T*>(&m) : nullptr;
}

}  // namespace ssps::sim
