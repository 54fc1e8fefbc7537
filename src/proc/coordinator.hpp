// The ssps_deploy orchestrator: spawns the ssps_noded fleet, runs its own
// lockstep replica as the round coordinator, verifies every cross-shard
// relay and forwards its frame to the target shard exactly as received,
// arbitrates the per-unit barrier (digest cross-check included), drives
// the scheduled kill/respawn fault, byte-compares every replica's final
// report, and emits the ssps_run-compatible JSON report (plus flat
// "deploy_*" keys a differential harness strips).
#pragma once

#include <cstdint>
#include <string>

#include "proc/replica.hpp"

namespace ssps::proc {

struct DeployOptions {
  ScenarioChoice choice;
  std::size_t procs = 2;
  /// Path to the ssps_noded binary to spawn.
  std::string noded_path;
  /// Directory for daemon snapshot files ("" = no persistence). Required
  /// when a kill is scheduled.
  std::string snapshot_dir;
  /// Scheduled fault: SIGKILL the daemon hosting `kill_shard` when the
  /// barrier for unit `kill_round` opens, then respawn it with a replay
  /// prefix. kill_shard < 0 disables.
  int kill_shard = -1;
  std::uint64_t kill_round = 0;
  int round_timeout_ms = 120000;
  /// Test hook: daemons send every RoundDone twice.
  bool dup_acks = false;
  /// Also run a pure in-process ScenarioRunner and byte-compare reports.
  bool diff_sim = false;
  /// Write the final JSON here too ("" = stdout only).
  std::string out_path;
  bool quiet = false;
};

/// Runs the deployment to completion. Returns 0 when the run, the oracle,
/// every cross-replica byte comparison and (if requested) the simulator
/// differential all pass.
int run_deploy(const DeployOptions& opts);

}  // namespace ssps::proc
