// The ssps_noded daemon body: one process hosting one node shard of a
// multi-process deployment (see replica.hpp for the lockstep-replica
// design and ctrl.hpp for the barrier protocol it speaks). The daemons
// are the deployment's only replicas: each checks every relay it
// consumes against its own replica, and the coordinator compares their
// barrier digests and final reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proc/ctrl.hpp"
#include "proc/replica.hpp"

namespace ssps::proc {

struct NodedOptions {
  ScenarioChoice choice;
  std::size_t procs = 2;
  std::size_t shard = 0;
  std::uint16_t port = 0;
  /// Crash recovery: silently replay units 1..replay_upto locally (no
  /// barrier traffic), then verify the disk snapshots against the
  /// replayed state, adopt them, and rejoin the barrier at replay_upto.
  std::uint64_t replay_upto = 0;
  /// Lockstep restore events recorded before this (re)spawn, applied at
  /// their rounds during replay. All rounds must be < replay_upto.
  std::vector<Restore> replay_restores;
  /// Directory for per-node snapshot files ("" = no persistence).
  std::string snapshot_dir;
  int round_timeout_ms = 120000;
  /// Test hook (barrier robustness): send every RoundDone twice.
  bool dup_acks = false;
};

/// How a daemon ends: run_noded's result, and ssps_noded's exit code.
enum NodedExit : int {
  kExitOk = 0,
  /// The run finished and the fleet agreed on the report, but the report
  /// is not ok and oracle_ok (ssps_run exits 1 then too).
  kExitReportNotOk = 1,
  kExitBadSpec = 2,
  /// This replica found divergence: a relay that does not match its own
  /// envelope, a restore or release for another round, an undecodable
  /// control frame, or a disk snapshot that disagrees with the replay.
  kExitDivergence = 3,
  kExitHandshake = 4,
  /// The coordinator vanished or aborted the deployment.
  kExitCoordinatorGone = 5,
  kExitTimeout = 6,  ///< a barrier wait timed out
};

/// Runs the daemon to completion and returns its NodedExit code.
/// Divergence and protocol failures exit from inside the barrier.
int run_noded(const NodedOptions& opts);

}  // namespace ssps::proc
