// The ssps_noded daemon body: one process hosting one node shard of a
// multi-process deployment (see replica.hpp for the lockstep-replica
// design and ctrl.hpp for the barrier protocol it speaks).
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

/// Runs the daemon to completion. Exit codes: 0 success, 2 bad spec,
/// 3 divergence (relay bytes, digest, or snapshot mismatch), 4 handshake
/// failure, 5 coordinator vanished/aborted, 6 barrier timeout. Divergence
/// and protocol failures exit from inside the barrier.
int run_noded(const NodedOptions& opts);

}  // namespace ssps::proc
