// Replica: the deterministic core every deployment process runs.
//
// The deployment's determinism argument: every process — the
// ssps_deploy coordinator and each ssps_noded daemon — runs a FULL
// deterministic replica of the scenario (same spec, same seed), driven
// by the lockstep scheduler: SerialScheduler's round, then the barrier
// at every schedule unit. A daemon "hosts" the shard of nodes whose ids
// map to it (shard_of); within a round, the messages those nodes sent to
// other shards are wire-encoded in the simulator's canonical send order
// — in-flight lane order, i.e. ascending seq — and relayed through the
// coordinator to the target shard. The target finds the envelope its own
// replica generated by binary search on seq (the serial round only
// appends to the lane, in seq order), checks the (from, to) stamp,
// byte-compares the relay against it and swaps the wire-decoded message
// in place, so delivery consumes the bytes that actually crossed the
// socket. The replica reaches the lane through sim::EngineSeam, like
// every scheduler. Any byte of disagreement is divergence and aborts
// the deployment; agreement means the live execution makes identical
// protocol decisions to the simulator, which is why a live report is
// byte-identical to ssps_run's for the same seed.
//
// Relay messages decode into a replica-owned scratch pool, not the
// simulator's arena: the report never serializes pool telemetry, but
// keeping the arena untouched makes the no-perturbation argument
// structural rather than accounting-dependent.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "proc/ctrl.hpp"
#include "scenario/runner.hpp"
#include "sim/message_pool.hpp"

namespace ssps::proc {

/// Shard owning node `id` under `procs` daemons: ids are dense from 1, so
/// this round-robins nodes (supervisors included) across the fleet.
inline std::size_t shard_of(sim::NodeId id, std::size_t procs) {
  return static_cast<std::size_t>((id.value - 1) % procs);
}

/// The scenario selection both sides of a deployment build their replica
/// from. The coordinator passes exactly these fields to the daemons it
/// spawns; build_scenario must therefore be a pure function of them.
struct ScenarioChoice {
  std::string name = "steady";
  std::uint64_t seed = 1;
  std::uint64_t nodes = 0;  // 0 = scenario default
  bool scramble = false;
  bool oracle = false;
  std::uint64_t snapshot_every = 0;  // 0 = keep the builtin's cadence
};

/// Builds the ScenarioSpec for `choice` the way ssps_run does (builtin →
/// scrambled variant → oracle flag), plus the deploy-only snapshot-cadence
/// override. Returns false (leaving `out` untouched) for an unknown
/// scenario name.
bool build_scenario(const ScenarioChoice& choice, scenario::ScenarioSpec& out);

/// Rejects specs the deployment can't run in lockstep (the timed
/// scheduler, multi-threaded rounds: the lockstep round is serial).
/// Returns an error message or "".
std::string deploy_unsupported(const scenario::ScenarioSpec& spec);

class Replica {
 public:
  /// Called at the end of every schedule unit with its 1-based number.
  using Barrier = std::function<void(std::size_t unit)>;

  Replica(scenario::ScenarioSpec spec, std::size_t procs);

  /// Installs the lockstep scheduler. Must be called before run(), after
  /// which every schedule unit is SerialScheduler's round followed by
  /// `barrier`.
  void install_lockstep(Barrier barrier);

  const scenario::ScenarioReport& run() { return runner_.run(); }

  scenario::ScenarioRunner& runner() { return runner_; }
  sim::Network& net() { return runner_.net(); }
  std::size_t procs() const { return procs_; }

  /// Order-sensitive state fingerprint for the barrier digest: round,
  /// traffic totals, in-flight count. Any cross-replica difference in
  /// protocol decisions moves one of these within a round or two.
  std::uint64_t digest();

  /// The cross-shard sends originated by `shard`'s nodes this round, in
  /// canonical (seq) order, wire-encoded. Envelopes without a wire
  /// encoding or without a sender (harness-originated traffic, which
  /// every replica generates locally) don't travel.
  std::vector<Relay> collect_outbox(std::size_t shard);

  enum class RelayCheck {
    kOk,           ///< matched the local envelope byte-for-byte
    kUnknown,      ///< no in-flight envelope stamped (from, to, seq)
    kMismatch,     ///< local envelope encodes to different bytes
    kUndecodable,  ///< relay bytes don't decode (damaged in flight)
  };
  static const char* relay_check_name(RelayCheck c);

  /// Byte-compares `relay` against the local replica's envelope.
  RelayCheck verify_relay(const Relay& relay);

  /// verify_relay + swaps the wire-decoded message into the in-flight
  /// envelope, so delivery consumes the socket bytes.
  RelayCheck apply_relay(const Relay& relay);

  /// Lockstep recovery event: crash + recover (stale-snapshot path) every
  /// alive subscriber owned by `shard`, in id order. Single-topic only —
  /// deploy kills are gated to single-topic scenarios.
  void apply_restore(std::size_t shard);

 private:
  std::size_t procs_;
  /// Scratch arena for wire-decoded relay payloads (see file comment).
  /// Declared before the runner: the Network's destructor reclaims
  /// in-flight envelopes through their owning pool, and swapped relay
  /// messages live here, so this pool must outlive the runner.
  sim::MessagePool relay_pool_;
  scenario::ScenarioRunner runner_;
};

}  // namespace ssps::proc
