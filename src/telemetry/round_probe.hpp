// Per-round time-series sampling: a bounded ring of round snapshots.
//
// Attaching a RoundProbe to a Network (Network::attach_round_probe) makes
// every round (Network::run_unit under a round-grained scheduler) push one
// RoundSample after the round barrier, so
// convergence and recovery can be plotted round by round instead of being
// summarized by a single rounds-to-converge scalar. The ring keeps the
// last `capacity` rounds and counts what it evicted, which bounds memory
// for arbitrarily long runs.
//
// Determinism: every field (round, delivered, timeouts, in_flight, alive,
// nonconforming) is a function of the simulated state at the round
// barrier, so the emitted time series is bit-identical across worker
// counts.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "sim/types.hpp"

namespace ssps::telemetry {

/// One round's health snapshot, taken after the round barrier.
struct RoundSample {
  /// Value of the round clock after the round (1 = after the first round).
  sim::Round round = 0;
  /// Messages delivered during the round.
  std::uint64_t delivered = 0;
  /// Timeouts fired during the round.
  std::uint64_t timeouts = 0;
  /// Messages in flight at the round barrier (next round's batch).
  std::uint64_t in_flight = 0;
  /// Alive nodes at the round barrier.
  std::uint64_t alive = 0;
  /// Nodes (or topics, for multi-topic runs) not yet in a legit state;
  /// filled by the enricher when one is installed, 0 otherwise.
  std::uint64_t nonconforming = 0;
};

/// Bounded ring buffer of RoundSamples.
class RoundProbe {
 public:
  explicit RoundProbe(std::size_t capacity = 512) : capacity_(capacity) {
    SSPS_ASSERT_MSG(capacity > 0, "RoundProbe: capacity must be positive");
    ring_.reserve(capacity);
  }

  /// Called by the Network after each round. Runs the enricher (if any)
  /// before storing, so expensive fields are only computed for samples
  /// that are actually kept — which is all of them, but the hook point
  /// keeps the Network free of scenario-layer knowledge.
  void push(RoundSample sample) {
    if (enricher_) enricher_(sample);
    if (ring_.size() < capacity_) {
      ring_.push_back(sample);
    } else {
      ring_[head_] = sample;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  /// Installs a callback that fills the fields the Network cannot compute
  /// itself (nonconforming counts live in the core/scenario layers).
  void set_enricher(std::function<void(RoundSample&)> fn) { enricher_ = std::move(fn); }

  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }

  /// Samples evicted because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  /// i-th retained sample, oldest first.
  const RoundSample& at(std::size_t i) const {
    SSPS_ASSERT(i < ring_.size());
    return ring_[(head_ + i) % ring_.size()];
  }

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<RoundSample> ring_;
  std::size_t head_ = 0;  // oldest sample once the ring wrapped
  std::uint64_t dropped_ = 0;
  std::function<void(RoundSample&)> enricher_;
};

}  // namespace ssps::telemetry
