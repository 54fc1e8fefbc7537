// Deterministic parallel round scheduler: sharded in-flight lanes over a
// persistent worker pool, bit-identical to the single-threaded core.
//
// Why the trace equality holds by construction:
//
//   1. Shuffle + group stay sequential and untouched. Each round begins
//      exactly as the serial scheduler's does: the merged in-flight
//      buffer (whose order reproduces the serial send order, see 3) is
//      swapped out, shuffled with the same seeded stream, and grouped by
//      target with the same stable counting sort. The batch handed to
//      the delivery phase is therefore byte-for-byte the serial batch.
//   2. Sharded delivery is unobservable. The grouped batch is sliced
//      into contiguous target-id ranges, one per worker. Within a slice
//      a worker delivers in the serial in-slice order; across slices,
//      interleaving cannot be observed by any node, because a node's
//      actions touch only that node's state and per-node RNG stream, and
//      everything sent this round arrives next round (the same argument
//      that already justifies grouped delivery and the id-order timeout
//      sweep in the serial core).
//   3. The merge reproduces the serial send order. A worker's sends
//      append to its private lane (through its SendContext — no atomics
//      anywhere on the send path). Serial emission order is "grouped
//      batch processed front to back"; since the shards partition the
//      grouped batch contiguously in target-id order, concatenating the
//      lanes in worker order at the barrier is exactly that order. The
//      sequential id-order timeout sweep then appends its sends after
//      all lanes, as in the serial round. The next round's shuffle
//      consumes the same buffer contents in the same order with the same
//      RNG stream — so the rounds stay locked together forever.
//   4. Everything else is commutative bookkeeping. Per-worker Metrics
//      shards hold integer counters folded (in worker-id order, row by
//      row on MsgTypeId) into the main Metrics when read; per-worker
//      MessagePools keep allocation single-threaded, with cross-pool
//      frees deferred to per-worker lanes and repatriated at the round
//      barrier. Pool handles are not observable in traces or reports.
//
// Consequently the delivery trace and the JSON report of a T-thread run
// are byte-identical to the 1-thread run for every scenario and seed —
// CI enforces this with twin-run cmp across thread counts.
//
// Constraints: topology mutations (spawn/crash/inject) must happen
// between rounds (Network asserts this during the parallel phase); the
// timed and asynchronous schedulers are unaffected and stay serial.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/message_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace ssps::sched {

class ParallelScheduler final : public Scheduler {
 public:
  /// Spawns `threads - 1` pool threads (the calling thread acts as
  /// worker 0 during each round's delivery phase).
  explicit ParallelScheduler(unsigned threads);
  ~ParallelScheduler() override;

  std::size_t advance(sim::Network& net) override;
  void flush_metrics(sim::Network& net) override;
  /// Joins the pool threads (the per-worker arenas stay alive under any
  /// in-flight envelopes). A retired scheduler must not advance again.
  void retire() override { stop_workers(); }
  unsigned threads() const override {
    return static_cast<unsigned>(workers_.size());
  }
  std::string_view name() const override { return "parallel"; }
  std::size_t reserved_bytes() const override;

 private:
  /// One worker's private world: message arena, metrics shard, latency
  /// shard, in-flight lane, deferred-free lane, and the SendContext tying
  /// them together. Persistent across rounds so slab freelists keep
  /// recycling.
  struct Worker {
    sim::MessagePool pool;
    sim::Metrics metrics;
    telemetry::LatencyTracker latency;
    std::vector<sim::Envelope> lane;
    sim::FreeLane free_lane;
    sim::SendContext ctx;
    std::size_t begin = 0;  // this round's slice of the grouped batch
    std::size_t end = 0;
    std::size_t delivered = 0;
  };

  void worker_main(std::size_t index);
  /// Delivers the worker's slice with TLS routed at its private context.
  void run_slice(Worker& w);
  /// Signals shutdown and joins the pool threads (idempotent).
  void stop_workers();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped once per delivery phase
  std::size_t running_ = 0;       // pool workers still in the phase
  bool shutdown_ = false;
  sim::Network* net_ = nullptr;  // round-scoped; guarded by the barrier
};

}  // namespace ssps::sched
