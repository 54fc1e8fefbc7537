// Replica: the deterministic core every daemon runs.
//
// The deployment's determinism argument: each ssps_noded daemon runs a
// FULL deterministic replica of the scenario (same spec, same seed),
// driven by the lockstep scheduler: SerialScheduler's round, then the
// barrier at every schedule unit. A daemon "hosts" the shard of nodes
// whose ids map to it (shard_of); within a round, the messages those
// nodes sent to other shards are wire-encoded in the simulator's
// canonical send order — in-flight lane order — and relayed through the
// coordinator to the target shard, each named by its index in the lane.
// The coordinator runs no replica: it routes each relay by its header and
// compares what the replicas report. At the barrier every replica's lane
// holds the round's sends in send order, so the target finds the envelope
// its own replica generated at that index, checks the (from, to) stamp,
// byte-compares the relay against it and swaps the wire-decoded message
// in place, so delivery consumes the bytes that actually crossed the
// sockets. The replica reaches the lane through sim::EngineSeam, like
// every scheduler. Any byte of disagreement is divergence and aborts the
// deployment, as does a barrier digest or a final report on which two
// replicas disagree; agreement means the live execution makes identical
// protocol decisions to the simulator, which is why a live report is
// byte-identical to ssps_run's for the same seed.
//
// Relay messages decode into a replica-owned scratch pool, not the
// simulator's arena: the report never serializes pool telemetry, but
// keeping the arena untouched makes the no-perturbation argument
// structural rather than accounting-dependent.
//
// A relay costs one encode at its sender and, at its target, one parse,
// one encode and one compare; the coordinator between them parses its
// header. The sender's outbox writer encodes each envelope in place into
// the Relay frame it writes. The target parses that frame in place (a
// Relay views its frame, see ctrl.hpp), encodes its own envelope into one
// scratch buffer it reuses for every relay, and compares the two byte
// strings. apply_relay reads the relay only during the call: nothing here
// keeps a view.
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

/// The scenario selection a deployment's daemons build their replicas
/// from. The coordinator checks it and passes exactly these fields to the
/// daemons it spawns; build_scenario must therefore be a pure function of
/// them.
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

  /// The buffer the next relay is appended to. It may flush the buffer's
  /// earlier contents before returning it.
  using RelaySink = std::function<std::vector<std::uint8_t>&()>;

  /// Writes a Relay frame (append_relay) for each cross-shard send of
  /// `shard`'s nodes this round, in lane (send) order, at the end of
  /// `sink()`, the envelope wire-encoded in place inside it, and returns
  /// how many it wrote. Envelopes without a wire encoding or without a
  /// sender (harness-originated traffic, which every replica generates
  /// locally) don't travel.
  std::uint64_t write_outbox(std::size_t shard, const RelaySink& sink);

  enum class RelayCheck {
    kOk,           ///< matched the local envelope byte-for-byte
    kUnknown,      ///< no in-flight envelope at index stamped (from, to)
    kMismatch,     ///< local envelope encodes to different bytes
    kUndecodable,  ///< relay bytes don't decode (damaged in flight)
  };
  static const char* relay_check_name(RelayCheck c);

  /// Byte-compares `relay` against the local replica's envelope, encoded
  /// into a scratch buffer the replica reuses, then swaps the
  /// wire-decoded message into the in-flight envelope, so delivery
  /// consumes the socket bytes. Anything but kOk leaves the replica as it
  /// was.
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
  /// The local envelope's wire frame, re-encoded for each relay compare.
  std::vector<std::uint8_t> scratch_;
};

}  // namespace ssps::proc
