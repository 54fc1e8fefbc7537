// The event-driven virtual-clock scheduler (timed mode).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sched/scheduler.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"

namespace ssps::sched {

/// Runs one virtual-clock interval (= one round = 1 virtual second) per
/// advance call on the calling thread: pops every event due by the
/// interval deadline off its delivery-time heap, delivers, and routes the
/// resulting sends through the per-link latency/fault model
/// (sim/link.hpp). The engine owns the link model, the virtual clock, the
/// event heap, the fault stream and the fault counters; the Network only
/// sees the lane it drains. Single-threaded by contract — link routing
/// mutates the event heap and the fault stream. With the default
/// TimedConfig (constant one-interval latency, zero faults) the delivery
/// trace is bit-identical to SerialScheduler's.
class TimedScheduler final : public Scheduler {
 public:
  /// Builds the engine for `net`, which must have nothing in flight yet
  /// (switch modes before the first send), and turns on the sender
  /// attribution link routing keys on; install it with set_scheduler.
  /// `corrupter` is the wire-damage model corrupting links apply (null =
  /// LinkProfile::corrupt is inert); it must outlive the engine.
  TimedScheduler(sim::Network& net, sim::TimedConfig cfg,
                 sim::Corrupter* corrupter = nullptr);
  ~TimedScheduler() override;

  std::size_t advance(sim::Network& net) override;
  Unit unit() const override { return Unit::kInterval; }
  void for_each_held(const HeldVisitor& fn) const override;
  void drop_held_for(sim::Network& net, sim::NodeId to) override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "timed"; }

  /// Appends a partition window (virtual-second bounds are absolute, i.e.
  /// relative to the start of the run) to the live schedule.
  void add_partition(const sim::PartitionWindow& window) {
    cfg_.partitions.push_back(window);
  }

  /// Virtual clock in ticks (kTicksPerInterval per interval).
  sim::Step now_ticks() const { return now_; }
  /// Messages dropped by link loss or partitions so far.
  std::uint64_t dropped() const { return dropped_; }
  /// Extra deliveries manufactured by link duplication.
  std::uint64_t duplicated() const { return duplicated_; }
  /// Messages whose bytes were mangled in flight (requires a Corrupter).
  /// Counts both outcomes: rejected and delivered-different.
  std::uint64_t corrupted() const { return corrupted_; }
  /// Corrupted messages whose damage was detected and rejected (subset of
  /// corrupted(); also counted in Metrics::total_rejected).
  std::uint64_t rejected() const { return rejected_; }

 private:
  /// One scheduled delivery: the envelope plus its virtual delivery time.
  /// Equal-time events pop in send (`seq`) order — the deterministic
  /// tie-break that makes the constant-latency special case reproduce the
  /// round batch order exactly.
  struct Event {
    sim::Step at = 0;
    std::uint64_t seq = 0;
    sim::Envelope env;
  };
  /// Min-heap "later than" comparator for std::push_heap/pop_heap.
  static bool later(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// Drains the lane onto the event heap, routing each envelope through
  /// its link (loss, partition, corruption, duplication, latency).
  /// `send_tick` is the virtual time the drained sends are deemed to have
  /// happened at.
  void schedule_sends(sim::EngineSeam& seam, sim::Step send_tick);
  void route(sim::EngineSeam& seam, const sim::Envelope& env, sim::Step send_tick);
  void push(sim::Step at, const sim::Envelope& env);

  sim::TimedConfig cfg_;
  sim::Corrupter* corrupter_;
  /// Virtual clock in ticks; advances by kTicksPerInterval per interval.
  sim::Step now_ = 0;
  /// Event heap (`later` order): every in-flight timed message.
  std::vector<Event> events_;
  /// This interval's due events, in (time, send-order) order.
  std::vector<sim::Envelope> batch_;
  /// Link-fault stream, decorrelated from the Network's scheduler stream
  /// (which must draw exactly the round scheduler's sequence for the
  /// equivalence argument; faults and latency sampling draw here instead).
  ssps::Rng link_rng_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace ssps::sched
