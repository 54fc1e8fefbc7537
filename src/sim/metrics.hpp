// Message accounting: per-message-type and per-node counters.
//
// The hot path (one on_send + one on_deliver per message) works entirely
// on small integers. A send bumps the row of the MsgTypeId the message
// already carries (Message::metrics_type); type ids are process-global
// and dense, so every Metrics instance shares one row layout and a worker
// shard folds into the main counters by element-wise addition. A delivery
// bumps its target's cell in a vector indexed by NodeId. The name-keyed
// views used by reports and tests are built when read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"

namespace ssps::sim {

/// Count/byte pair for one message label.
struct MessageCounter {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Aggregated traffic statistics, maintained by the Network on every send
/// and delivery. Benches reset these around the measured window.
class Metrics {
 public:
  /// Records a send of `m`: wire_size() bytes on the row of its
  /// metrics_type(). The row's first send records m.name() for the
  /// name-keyed views.
  void on_send(const Message& m) {
    const MsgTypeId type = m.metrics_type();
    if (type >= rows_.size()) [[unlikely]] rows_.resize(type + 1);
    TypeRow& row = rows_[type];
    if (row.count == 0) [[unlikely]] row.name = m.name();
    const std::size_t bytes = m.wire_size();
    row.count += 1;
    row.bytes += bytes;
    total_sent_ += 1;
    total_bytes_ += bytes;
  }

  /// Records a delivery (receipt) at node `at`. Callers pass delivery
  /// targets only, which are alive slots of the Network, so the per-node
  /// table never outgrows the slot table. No table here is indexed by an
  /// id taken from message contents: a garbage reference decoded from a
  /// corrupted message can be any 64-bit value, and such an id must not
  /// size an allocation.
  void on_deliver(NodeId at) {
    total_delivered_ += 1;
    const auto index = static_cast<std::size_t>(at.value - 1);
    if (index >= received_.size()) [[unlikely]] {
      SSPS_ASSERT_MSG(!at.is_null(), "on_deliver: the null reference is no target");
      received_.resize(std::max({index + 1, received_.size() * 2, std::size_t{16}}), 0);
    }
    received_[index] += 1;
  }

  /// Records an adversarially injected message (Network::inject). Kept
  /// separate from sends: injected garbage is initial-state content, not
  /// protocol traffic, but stabilization reports want its volume.
  void on_inject(std::size_t bytes);

  /// Records a message rejected instead of processed: wire bytes that
  /// failed to decode (corrupting links, stale snapshots) or received
  /// contents a handler refused as malformed. The robustness counterpart
  /// of a crash — rejections are expected under fault injection, and the
  /// reports surface their volume.
  void on_reject(std::size_t bytes);

  /// Clears all counters.
  void reset();

  /// Adds every counter of this Metrics into `dst`, row by row (type ids
  /// are process-global, so both instances index rows alike). The
  /// parallel scheduler accumulates per-worker shards and folds them into
  /// the Network's main Metrics in worker-id order when the counters are
  /// read; integer sums commute, so the folded totals are bit-identical
  /// to single-thread accounting regardless of how deliveries were
  /// sharded.
  void fold_into(Metrics& dst) const;

  /// Copy of the current counters. The scenario engine snapshots around
  /// each phase so a report can carry per-phase traffic without disturbing
  /// counters a caller may still be accumulating.
  Metrics snapshot() const { return *this; }

  /// Total messages sent since the last reset.
  std::uint64_t total_sent() const { return total_sent_; }

  /// Total messages delivered (received) since the last reset.
  std::uint64_t total_delivered() const { return total_delivered_; }

  /// Total bytes sent since the last reset.
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Messages injected adversarially since the last reset.
  std::uint64_t total_injected() const { return total_injected_; }

  /// Bytes injected adversarially since the last reset.
  std::uint64_t injected_bytes() const { return injected_bytes_; }

  /// Messages rejected as malformed since the last reset.
  std::uint64_t total_rejected() const { return total_rejected_; }

  /// Bytes rejected as malformed since the last reset.
  std::uint64_t rejected_bytes() const { return rejected_bytes_; }

  /// Messages sent under one action label, summed over every message
  /// type with that name().
  std::uint64_t sent(std::string_view name) const;

  /// Messages received by one node (its in-load; used for congestion and
  /// supervisor-overhead experiments).
  std::uint64_t received_by(NodeId id) const;

  /// All per-label send counters with nonzero traffic, sorted by label for
  /// stable output; message types that share a name() share one entry.
  /// Returns a cached flat view: report writers call this once per phase
  /// (and per supervisor row). The cache revalidates against
  /// total_sent(), which moves on every counted send, so the hot
  /// send/deliver path pays nothing for it.
  const std::vector<std::pair<std::string, MessageCounter>>& by_label() const;

 private:
  /// Traffic of one MsgTypeId. `name` is its messages' name(), taken at
  /// the row's first send (a string with static storage, see
  /// Message::name).
  struct TypeRow {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::string_view name;
  };

  std::vector<TypeRow> rows_;            // [MsgTypeId]
  std::vector<std::uint64_t> received_;  // [node index]
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_delivered_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_injected_ = 0;
  std::uint64_t injected_bytes_ = 0;
  std::uint64_t total_rejected_ = 0;
  std::uint64_t rejected_bytes_ = 0;

  /// Cached by_label() view. Valid while view_sent_ == total_sent_, which
  /// only moves on counted sends (monotone between resets; reset() stamps
  /// the sentinel so a fresh window never aliases an old one).
  static constexpr std::uint64_t kViewInvalid = ~0ULL;
  mutable std::vector<std::pair<std::string, MessageCounter>> by_label_view_;
  mutable std::uint64_t view_sent_ = kViewInvalid;
};

}  // namespace ssps::sim
