// ssps_deploy — multi-process deployment orchestrator.
//
// Spawns a fleet of ssps_noded processes on localhost TCP, runs the named
// scenario in barrier lockstep across them, and prints the same JSON
// report ssps_run would — byte-identical for the same (scenario, seed,
// nodes, flags) — plus flat "deploy_*" keys (process count, wall clock,
// relay traffic) that `grep -v '\"deploy_'` strips for differential
// comparison:
//
//   $ ssps_deploy --noded ./ssps_noded --scenario steady --nodes 64
//                 --procs 4 --out live.json
//   $ ssps_run --scenario steady --nodes 64 --out sim.json
//   $ diff <(grep -v '"deploy_' live.json) sim.json
//
// The daemons run the replicas; this tool routes their relays and
// compares their barrier digests and final reports. --kill-shard/
// --kill-round SIGKILLs one daemon mid-run and respawns it through replay
// plus the disk-snapshot recovery path.
#include <cstdio>
#include <string>

#include "cli_util.hpp"
#include "proc/coordinator.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ssps_deploy --noded <path> --scenario <name> [--seed <u64>]\n"
               "                   [--nodes <n>] [--procs <n>] [--scramble]\n"
               "                   [--oracle] [--snapshot-every <r>]\n"
               "                   [--snapshot-dir <dir>] [--kill-shard <i>]\n"
               "                   [--kill-round <u>] [--round-timeout <ms>]\n"
               "                   [--dup-acks] [--out <file>] [--quiet]\n"
               "\n"
               "Runs a built-in scenario as real processes: --procs ssps_noded\n"
               "daemons, each a full replica, plus this tool as the hub that\n"
               "routes their cross-shard relays over localhost TCP, in\n"
               "deterministic lockstep. Each daemon byte-verifies the relays it\n"
               "consumes; the hub checks that the daemons agree on every barrier\n"
               "digest and on the final report. The report matches ssps_run's\n"
               "byte-for-byte apart from the added deploy_* keys.\n"
               "\n"
               "options:\n"
               "  --noded <path>         ssps_noded binary to spawn\n"
               "  --scenario <name>      built-in scenario (round-scheduled only)\n"
               "  --seed <u64>           simulation seed (default 1)\n"
               "  --nodes <n>            client population (default: per scenario)\n"
               "  --procs <n>            daemon count, at least 2 (default 2)\n"
               "  --scramble             scrambled-start variant (implies oracle)\n"
               "  --oracle               run the invariant oracle at phase ends\n"
               "  --snapshot-every <r>   checkpoint cadence override (needed for\n"
               "                         kill recovery; report-neutral)\n"
               "  --snapshot-dir <dir>   daemon checkpoint directory (required\n"
               "                         with --kill-shard)\n"
               "  --kill-shard <i>       SIGKILL shard <i>'s daemon mid-run...\n"
               "  --kill-round <u>       ...when its ack for unit <u> arrives\n"
               "                         (its relays for <u> are dropped), then\n"
               "                         respawn it through replay + disk-\n"
               "                         snapshot recovery (single-topic only)\n"
               "  --round-timeout <ms>   barrier deadline (default 120000)\n"
               "  --dup-acks             daemons ack every barrier twice (test)\n"
               "  --out <file>           additionally write the report to <file>\n"
               "  --quiet                suppress stdout report (use with --out)\n");
}

using ssps::cli::parse_u64;

}  // namespace

int main(int argc, char** argv) {
  ssps::proc::DeployOptions opts;
  std::uint64_t procs = 2;
  std::uint64_t timeout_ms = 120000;
  std::uint64_t kill_shard = 0;
  bool have_kill_shard = false;
  bool have_scenario = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--noded") {
      const char* v = value();
      if (v == nullptr) {
        usage(stderr);
        return 2;
      }
      opts.noded_path = v;
    } else if (arg == "--scenario") {
      const char* v = value();
      if (v == nullptr) {
        usage(stderr);
        return 2;
      }
      opts.choice.name = v;
      have_scenario = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value(), opts.choice.seed)) {
        std::fprintf(stderr, "ssps_deploy: --seed expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--nodes") {
      if (!parse_u64(value(), opts.choice.nodes) || opts.choice.nodes == 0) {
        std::fprintf(stderr, "ssps_deploy: --nodes expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--procs") {
      if (!parse_u64(value(), procs) || procs == 0) {
        std::fprintf(stderr, "ssps_deploy: --procs expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--scramble") {
      opts.choice.scramble = true;
    } else if (arg == "--oracle") {
      opts.choice.oracle = true;
    } else if (arg == "--snapshot-every") {
      if (!parse_u64(value(), opts.choice.snapshot_every)) {
        std::fprintf(stderr,
                     "ssps_deploy: --snapshot-every expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--snapshot-dir") {
      const char* v = value();
      if (v == nullptr) {
        usage(stderr);
        return 2;
      }
      opts.snapshot_dir = v;
    } else if (arg == "--kill-shard") {
      if (!parse_u64(value(), kill_shard)) {
        std::fprintf(stderr, "ssps_deploy: --kill-shard expects a shard index\n");
        return 2;
      }
      have_kill_shard = true;
    } else if (arg == "--kill-round") {
      if (!parse_u64(value(), opts.kill_round) || opts.kill_round == 0) {
        std::fprintf(stderr, "ssps_deploy: --kill-round expects a positive unit\n");
        return 2;
      }
    } else if (arg == "--round-timeout") {
      if (!parse_u64(value(), timeout_ms) || timeout_ms == 0) {
        std::fprintf(stderr, "ssps_deploy: --round-timeout expects milliseconds\n");
        return 2;
      }
    } else if (arg == "--dup-acks") {
      opts.dup_acks = true;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) {
        usage(stderr);
        return 2;
      }
      opts.out_path = v;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else {
      std::fprintf(stderr, "ssps_deploy: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (!have_scenario || opts.noded_path.empty()) {
    usage(stderr);
    return 2;
  }
  opts.procs = static_cast<std::size_t>(procs);
  opts.round_timeout_ms = static_cast<int>(timeout_ms);
  if (have_kill_shard) {
    opts.kill_shard = static_cast<int>(kill_shard);
    if (opts.kill_round == 0) {
      std::fprintf(stderr, "ssps_deploy: --kill-shard needs --kill-round\n");
      return 2;
    }
    if (opts.snapshot_dir.empty()) {
      std::fprintf(stderr, "ssps_deploy: --kill-shard needs --snapshot-dir\n");
      return 2;
    }
  }
  return ssps::proc::run_deploy(opts);
}
