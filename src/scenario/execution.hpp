// ExecutionSpec: how a scenario executes, separated from what it does.
//
// One struct names the scheduler flavor (rounds, async steps, timed
// intervals), the round-scheduler worker count and the timed link model,
// and owns the flag-combination rules the tools used to re-implement ad
// hoc: validate() is the single place that knows which combinations are
// contradictory, so ssps_run and ssps_sweep reject them identically
// (exit 2) before any work happens.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "sim/link.hpp"

namespace ssps::scenario {

/// Scheduler flavor used for the phase budgets.
enum class Scheduler {
  kRounds,  ///< synchronous rounds (serial or parallel round scheduler)
  kAsync,   ///< randomized asynchronous steps (sched::AsyncScheduler)
  /// Event-driven virtual clock with per-link latency/loss/duplication/
  /// reordering (sim/link.hpp). Budgets count one-second intervals, so
  /// phase durations and latency percentiles read as virtual seconds.
  kTimed,
};

struct ExecutionSpec {
  Scheduler scheduler = Scheduler::kRounds;

  /// Round-scheduler worker count (1 = serial). Any value produces the
  /// same report byte-for-byte apart from the recorded `threads` header
  /// field (sched/parallel.hpp); only wall-clock changes. Ignored by the
  /// async and timed schedulers (both are single-threaded by contract) —
  /// a spec-authored combination is tolerated, but validate() rejects it
  /// when a user asks for it explicitly (see below).
  unsigned threads = 1;

  /// Link latency/fault model for Scheduler::kTimed (ignored otherwise).
  /// The default — constant one-second latency, zero faults — reproduces
  /// the round scheduler's reports byte-for-byte (minus clock labels).
  sim::TimedConfig timed;

  /// A send/deliver event trace (sim/trace.hpp) will be attached to the
  /// run. Tracing attributes sends to the acting node through a single
  /// slot, so it is serial-only.
  bool trace = false;

  /// Checks the combination for contradictions; returns a human-readable
  /// reason, or nullopt when valid. The rules intentionally cover only
  /// what a user can ask for: a trace or the timed scheduler combined
  /// with a worker pool. Tools report the reason and exit 2.
  std::optional<std::string> validate() const;
};

/// Installs a named per-link latency profile into `exec.timed` (replacing
/// any previous link model) and selects the timed scheduler:
///   default  constant 1 s (round-equivalent channel)
///   lan      uniform 1-5 ms, one zone
///   wan      lognormal ~80 ms median, one zone
///   geo      3 zones: constant 50 ms local, uniform 0.1-0.8 s cross-zone
/// Returns false (leaving `exec` untouched) for an unknown name.
bool apply_latency_profile(ExecutionSpec& exec, std::string_view profile);

}  // namespace ssps::scenario
