// The branchable round scheduler: the explicit branch point the model
// checker (src/mc) drives.
//
// A synchronous round has exactly one source of nondeterminism the
// protocol can observe: the order in which each node's channel is
// drained. (Cross-target order within a round is unobservable — nodes
// interact only through messages that arrive next round — which is the
// same argument that justifies grouped delivery in the serial core and
// sharded delivery in the parallel scheduler.) BranchScheduler exposes
// that choice: prime() swaps the in-flight buffer into the grouped batch
// and hands out its size, then the driver delivers (or discards) grouped
// slots one at a time in any order it likes, and barrier() finishes the
// round. The serial round is the special case "deliver 0..batch in
// order", which is what advance() runs — so a BranchScheduler-driven
// network replays mainline traces bit-for-bit when the driver picks the
// serial order.
#pragma once

#include "sched/scheduler.hpp"
#include "sim/network.hpp"

namespace ssps::sched {

class BranchScheduler final : public Scheduler {
 public:
  // ---- Branch-point API (driven by mc::Explorer) ----------------------

  /// Starts a round: advances the step clock, swaps the in-flight buffer
  /// out as this round's batch (seeded shuffle + group by target), and
  /// returns the batch size. Grouped slots [0, batch) are then pending
  /// delivery; group_end(v) bounds target id v's group.
  std::size_t prime(sim::Network& net) { return sim::EngineSeam(net).round_begin(); }

  /// The i-th grouped slot of the primed batch. Valid until barrier();
  /// reading a slot already passed to deliver()/discard() is invalid (its
  /// message handle has been consumed).
  const sim::Envelope& slot(sim::Network& net, std::size_t i) const {
    return sim::EngineSeam(net).grouped(i);
  }

  /// END offset of target id v's group in the primed batch (offset 0 is
  /// implicit), exactly the shard-boundary table the parallel scheduler
  /// slices with.
  std::uint32_t group_end(sim::Network& net, std::uint64_t v) const {
    return sim::EngineSeam(net).group_end(v);
  }

  /// Delivers grouped slot i (returns 1, or 0 if the target crashed).
  std::size_t deliver(sim::Network& net, std::size_t i) {
    sim::EngineSeam seam(net);
    return seam.deliver(i, i + 1, seam.main_ctx());
  }

  /// Discards grouped slot i undelivered — the mutation hook for seeded
  /// protocol bugs (a transport that silently drops a message class).
  /// Mirrors the crashed-target path: the message invokes no action and
  /// its pool slot is reclaimed.
  void discard(sim::Network& net, std::size_t i) {
    sim::EngineSeam seam(net);
    seam.reclaim(seam.grouped(i));
  }

  /// Finishes the round once every slot has been delivered or discarded:
  /// fires the id-order timeout sweep and advances the round clock.
  void barrier(sim::Network& net) {
    sim::EngineSeam seam(net);
    seam.timeout_sweep();
    seam.round_end();
  }

  /// Messages sent during the current round (the next round's batch), in
  /// canonical send order — the channel contents the canonical state
  /// encoding serializes.
  const std::vector<sim::Envelope>& pending(sim::Network& net) const {
    return sim::EngineSeam(net).lane();
  }

  // ---- Scheduler seam --------------------------------------------------

  /// One full round in the serial order (prime, deliver all, barrier).
  std::size_t advance(sim::Network& net) override {
    const std::size_t batch = prime(net);
    sim::EngineSeam seam(net);
    const std::size_t delivered = seam.deliver(0, batch, seam.main_ctx());
    barrier(net);
    return delivered;
  }
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "branch"; }
};

}  // namespace ssps::sched
