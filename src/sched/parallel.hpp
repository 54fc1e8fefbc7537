// Deterministic parallel round scheduler: every phase of a round runs on
// a persistent worker pool, bit-identical to the single-threaded core.
//
// Why the trace equality holds by construction:
//
//   1. The batch is the serial batch. Each round begins as the serial
//      scheduler's does: the in-flight lane (whose canonical order
//      reproduces the serial send order, see 3) is shuffled with the same
//      seeded stream, on the calling thread — as (target, index) keys,
//      which take the same Fisher-Yates draws as shuffling the envelopes.
//      The same pass counts each target's messages, which fixes where
//      every target's group starts. Each worker then copies the messages
//      addressed to its own slot range into their groups, in shuffled
//      order: the stable counting sort of the serial round, so the
//      grouped batch is byte-for-byte the serial one, and each worker
//      writes only the part it is about to deliver.
//   2. Sharded actions are unobservable. A worker delivers its part of
//      the grouped batch in the serial in-slice order, then fires the due
//      Timeouts of its slot range in id order. Across workers,
//      interleaving cannot be observed by any node, because a node's
//      actions touch only that node's state and per-node RNG stream, and
//      everything sent this round arrives next round (the same argument
//      that already justifies grouped delivery and the id-order Timeout
//      sweep in the serial core). A Timeout reads shared state only
//      through the crash log and the round clock (the supervisor's
//      failure detector), and neither changes during the phase.
//   3. The parked lanes reproduce the serial send order. A worker's
//      delivery sends append to its private delivery lane and its Timeout
//      sends to its private Timeout lane (through its SendContexts — no
//      atomics anywhere on the send path). Serial emission order is "the
//      grouped batch front to back, then the Timeouts in id order"; since
//      the shards partition both contiguously in target-id order, all
//      delivery lanes in worker order followed by all Timeout lanes in
//      worker order is exactly that order. The lanes are not copied: the
//      Network parks them as segments of the in-flight lane, ahead of its
//      main lane, where harness sends between rounds append. The next
//      round's shuffle consumes the same sequence with the same RNG
//      stream — so the rounds stay locked together forever. (That round
//      sends into each worker's other lane set, so grouping never reads a
//      lane that is being written.)
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
// between rounds, never from a handler or a Timeout (Network asserts this
// during the parallel phase); the timed scheduler is unaffected and stays
// serial.
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
  /// worker 0 in every round).
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
  /// shard, delivery and Timeout lanes, deferred-free lane, and the two
  /// SendContexts tying them together. Persistent across rounds so slab
  /// freelists keep recycling. The lanes come in two sets used in
  /// alternate rounds: a round's sends land in one set while its batch is
  /// read from the other, parked in the Network since the round before.
  struct Worker {
    sim::MessagePool pool;
    sim::Metrics metrics;
    telemetry::LatencyTracker latency;
    std::vector<sim::Envelope> lanes[2];
    std::vector<sim::Envelope> timeout_lanes[2];
    sim::FreeLane free_lane;
    sim::SendContext ctx;          // delivery sends -> lanes[parity_]
    sim::SendContext timeout_ctx;  // Timeout sends -> timeout_lanes[parity_]
    std::size_t first_slot = 0;    // this round's slot range
    std::size_t last_slot = 0;
    std::size_t grouped = 0;
    std::size_t delivered = 0;
    std::size_t timeouts = 0;
  };

  void worker_main(std::size_t index);
  /// Runs the worker's share of a round with TLS routed at its private
  /// contexts: group its slot range, deliver, fire its Timeouts.
  void run_shard(Worker& w);
  /// Signals shutdown and joins the pool threads (idempotent).
  void stop_workers();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped once per round
  std::size_t running_ = 0;       // pool workers still in the round
  bool shutdown_ = false;
  sim::Network* net_ = nullptr;  // round-scoped; guarded by the barrier
  std::size_t parity_ = 0;       // which lane set this round sends into
};

}  // namespace ssps::sched
