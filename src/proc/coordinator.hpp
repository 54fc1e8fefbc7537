// The ssps_deploy orchestrator: spawns the ssps_noded fleet and acts as
// its hub. It runs no replica and executes no protocol: the daemons are
// the replicas. Per unit it routes each cross-shard Relay frame, exactly
// as received, to the daemon its header names; counts each daemon's
// relays against the count in that daemon's ack; and checks that every
// ack's state digest equals the first accepted ack's for that unit. At
// the end it checks that every daemon's final report is byte-identical,
// and emits that report (the ssps_run-compatible JSON) with flat
// "deploy_*" keys spliced in, which a differential harness strips. It
// also drives the scheduled kill/respawn fault. Its barrier logic is the
// I/O-free BarrierTracker (barrier.hpp); the control frames are ctrl.hpp's.
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
  /// Scheduled fault: when the barrier for unit `kill_round` opens, stop
  /// forwarding `kill_shard`'s relays; SIGKILL its daemon when its ack for
  /// that unit arrives, then respawn it with a replay prefix. A kill round
  /// past the run's last unit never fires. kill_shard < 0 disables.
  int kill_shard = -1;
  std::uint64_t kill_round = 0;
  int round_timeout_ms = 120000;
  /// Test hook: daemons send every RoundDone twice.
  bool dup_acks = false;
  /// Write the final JSON here too ("" = stdout only).
  std::string out_path;
  bool quiet = false;
};

/// Runs the deployment to completion. Returns 2, before starting any
/// process, for an invalid request (procs < 2 included); 1 when the
/// deployment aborts (divergence, a lost daemon, a timeout) or the agreed
/// report is not ok and oracle_ok; 0 otherwise.
int run_deploy(const DeployOptions& opts);

}  // namespace ssps::proc
