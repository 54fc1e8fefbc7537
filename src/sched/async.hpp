// The randomized asynchronous scheduler behind the unit seam.
//
// Why this engine exists beside the timed one: the timed scheduler stamps
// every handler send at its interval's end and every link latency has a
// one-tick floor, so each causal hop costs at least one interval, and all
// nodes fire Timeout exactly once per interval, in lockstep. Under it no
// process ever runs faster than another. This stepper is the only engine
// with unequal process speeds: one action per step, chosen at random, so
// a multi-hop message chain can complete between two consecutive Timeouts
// of a single node — the full asynchrony of the paper's model (§1.1)
// that self-stabilization must survive. tests/sim/async_test.cpp pins
// both facts (a 3-hop chain inside one Timeout gap here; a k-hop chain
// spanning at least k intervals under every named timed latency profile).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/network.hpp"

namespace ssps::sched {

/// Tuning knobs of the randomized asynchronous scheduler.
struct AsyncConfig {
  /// A message must be delivered at most this many steps after it was sent
  /// (fair message receipt).
  sim::Step max_message_age = 64;
  /// Every alive node executes Timeout at least once per this many steps
  /// (weakly fair action execution).
  sim::Step max_timeout_gap = 64;
  /// Probability (x / 256) that a step prefers a Timeout over a delivery
  /// when both are possible.
  std::uint32_t timeout_bias = 64;
  /// An attached RoundProbe is sampled whenever the step clock is a
  /// multiple of this (window counters since the previous sample) — the
  /// async analogue of the per-round sample. Chunk-invariant: the sample
  /// points depend only on the step count, never on how the steps were
  /// batched into run_units calls.
  sim::Step probe_stride = 64;
};

/// Executes one randomized asynchronous step per advance call: exactly
/// one enabled action — a delivery or a Timeout — subject to the fairness
/// bounds in AsyncConfig. The engine owns its fairness indexes (lazy
/// oldest-first heaps over the lane and the Timeout clocks), an alive-id
/// cache and the probe window counters; it rebuilds them from the Network
/// whenever the topology epoch moves, so a fresh engine needs no handover
/// and the Network never has to invalidate it.
class AsyncScheduler final : public Scheduler {
 public:
  explicit AsyncScheduler(AsyncConfig cfg = {}) : cfg_(cfg) {}

  AsyncConfig& config() { return cfg_; }

  std::size_t advance(sim::Network& net) override;
  Unit unit() const override { return Unit::kStep; }
  /// Samples the window counters whenever the step clock hits a multiple
  /// of AsyncConfig::probe_stride.
  void sample(sim::Network& net, std::size_t delivered) override;
  /// ~One action per alive node between convergence probes, so a
  /// run_until budget stays comparable to a round budget.
  std::size_t settle_stride(const sim::Network& net) const override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "async"; }

 private:
  /// Lazy oldest-first index entries: validated against the lane on pop,
  /// so swap-removes never have to eagerly fix the heap.
  struct MsgEntry {
    sim::Step sent_at = 0;
    std::uint64_t seq = 0;
    std::uint32_t index = 0;
  };
  struct TimeoutEntry {
    sim::Step last_timeout = 0;
    std::uint32_t slot = 0;
  };
  static bool msg_later(const MsgEntry& a, const MsgEntry& b) {
    return a.sent_at != b.sent_at ? a.sent_at > b.sent_at : a.seq > b.seq;
  }
  static bool timeout_later(const TimeoutEntry& a, const TimeoutEntry& b) {
    return a.last_timeout != b.last_timeout ? a.last_timeout > b.last_timeout
                                            : a.slot > b.slot;
  }

  /// Rebuilds every index if the topology epoch moved (spawn, crash,
  /// recover), then indexes lane entries appended since the last step.
  void sync(sim::Network& net, sim::EngineSeam& seam);
  /// Oldest pending message as (age, index), or age 0 when none pending.
  std::pair<sim::Step, std::size_t> oldest_pending(sim::Step now, sim::EngineSeam& seam);
  /// Stalest alive Timeout as (idle, slot), or idle 0 when none is
  /// overdue by at least one step.
  std::pair<sim::Step, std::size_t> stalest_timeout(sim::Step now, sim::EngineSeam& seam);
  /// Delivers lane[index] (swap-remove; non-FIFO channels).
  void deliver_at(sim::EngineSeam& seam, std::size_t index);
  void fire_timeout(sim::EngineSeam& seam, std::size_t slot, sim::Step now);

  AsyncConfig cfg_;
  /// Network::topology_epoch() the indexes were built at.
  std::uint64_t epoch_ = ~std::uint64_t{0};
  std::vector<MsgEntry> msg_heap_;
  /// Lane entries [0, synced_) already have heap entries.
  std::size_t synced_ = 0;
  std::vector<TimeoutEntry> timeout_heap_;
  /// Alive ids in id order, reused across steps.
  std::vector<sim::NodeId> alive_;
  /// Probe window counters since the last sample.
  std::size_t window_delivered_ = 0;
  std::size_t window_timeouts_ = 0;
};

}  // namespace ssps::sched
