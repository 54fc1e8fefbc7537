// Execution seam of the simulated network.
//
// sim::Network::run_unit() delegates to the installed Scheduler, which
// executes one *schedule unit* — a synchronous round, a timed interval, or
// a single asynchronous step. A scheduler is a policy over the paper's
// model (nodes joined by non-FIFO channels, fair receipt, weakly fair
// execution); the Network holds only the model itself. Every scheduler
// drives it through one narrow interface, sim::EngineSeam (round phases,
// grouped slots, the in-flight lane, the main SendContext, shard fold
// targets), and keeps whatever else its policy needs as its own state:
// the timed engine's event heap and link model (timed.hpp), the async
// engine's fairness indexes (async.hpp). Front-ends like the
// ScenarioRunner never special-case a mode.
//
// The contract every implementation must honor: for a fixed (seed, call
// sequence), the delivery trace — which message reaches which node in
// which order, and every metrics counter — is bit-identical across all
// schedulers of the same unit and all worker counts. SerialScheduler is
// the round reference; ParallelScheduler reproduces it from sharded worker
// lanes (see parallel.hpp for why that equality holds by construction),
// TimedScheduler's default profile reproduces it through the virtual
// clock, and BranchScheduler (branch.hpp) exposes the explicit branch
// point inside a round that the model checker (src/mc) drives.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

#include "sim/types.hpp"

namespace ssps::sim {
class Network;
struct Envelope;
}  // namespace ssps::sim

namespace ssps::sched {

class Scheduler {
 public:
  /// What one advance() call executes — and therefore the unit every
  /// budget, duration and latency figure is denominated in while this
  /// scheduler is installed.
  enum class Unit {
    kRound,     ///< one synchronous round
    kInterval,  ///< one virtual-clock interval (timed mode; = 1 round)
    kStep,      ///< one asynchronous step (a single delivery or Timeout)
  };

  virtual ~Scheduler() = default;

  /// Executes one schedule unit against `net`; returns the number of
  /// messages delivered by it.
  virtual std::size_t advance(sim::Network& net) = 0;

  /// The unit advance() executes.
  virtual Unit unit() const { return Unit::kRound; }

  /// Telemetry hook, called by Network::run_unit after every advance (the
  /// probe attach-point is on the Network). The default samples the
  /// attached RoundProbe once per unit — correct for round-grained
  /// schedulers; the async scheduler overrides it to sample window
  /// counters every AsyncConfig::probe_stride steps instead.
  virtual void sample(sim::Network& net, std::size_t delivered);

  /// How many units a convergence wait (Network::run_until) batches
  /// between predicate probes. 1 for round-grained schedulers (a round is
  /// already a batch of work); the async scheduler returns ~one action per
  /// alive node so the probe isn't priced once per single delivery.
  virtual std::size_t settle_stride(const sim::Network& net) const {
    (void)net;
    return 1;
  }

  /// Folds any per-worker metrics shards into net's main Metrics (a
  /// no-op for schedulers without shards). Network::metrics() calls this
  /// before handing the counters to any reader.
  virtual void flush_metrics(sim::Network& net) { (void)net; }

  /// Called when the Network replaces this scheduler mid-run. The
  /// instance stays alive — its message arenas may still own in-flight
  /// envelopes — but will never execute another unit, so
  /// implementations release everything else (the parallel scheduler
  /// joins its worker threads here).
  virtual void retire() {}

  /// Worker count (1 for every scheduler but the parallel one).
  virtual unsigned threads() const = 0;

  /// Display name for reports and diagnostics.
  virtual std::string_view name() const = 0;

  /// Bytes reserved by scheduler-owned message arenas (worker pools).
  virtual std::size_t reserved_bytes() const { return 0; }

  // ---- In-flight messages held off the Network's lane ------------------
  // The Network answers its in-flight queries (pending_messages,
  // pending_for, weakly_connected) and the crash drop over its own lane
  // plus whatever the engine holds. The defaults — nothing held — are
  // correct for every round-grained scheduler: their in-flight messages
  // all sit on the lane between units. A wrapper must forward both.

  using HeldVisitor = std::function<void(const sim::Envelope&)>;

  /// Calls `fn` for every in-flight message this scheduler holds (the
  /// timed engine's event heap).
  virtual void for_each_held(const HeldVisitor& fn) const { (void)fn; }

  /// Reclaims every held message addressed to `to` (the crash path:
  /// messages to a crashed node invoke no action).
  virtual void drop_held_for(sim::Network& net, sim::NodeId to) {
    (void)net;
    (void)to;
  }
};

/// The round scheduler for `threads` workers: SerialScheduler for 1, a
/// ParallelScheduler otherwise (the Network's default and set_threads).
std::unique_ptr<Scheduler> make_round_scheduler(unsigned threads);

}  // namespace ssps::sched
