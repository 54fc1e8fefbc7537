// ssps_noded — node-shard daemon of the multi-process deployment.
//
// Spawned by ssps_deploy, one process per shard: connects back to the
// coordinator's loopback port, handshakes with a versioned Hello, runs a
// full deterministic scenario replica in barrier lockstep with the fleet,
// relays its shard's cross-shard sends as wire-codec frames, and
// byte-verifies every frame relayed to it. It exits 1, as ssps_run does,
// when its report is not ok. Not intended to be run by
// hand, but its flags are plain enough to:
//
//   $ ssps_noded --scenario steady --seed 7 --procs 4 --shard 2 --port 40123
#include <cstdio>
#include <string>

#include "cli_util.hpp"
#include "proc/noded.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ssps_noded --scenario <name> --procs <n> --shard <i>\n"
               "                  --port <p> [--seed <u64>] [--nodes <n>]\n"
               "                  [--scramble] [--oracle] [--snapshot-every <r>]\n"
               "                  [--snapshot-dir <dir>] [--round-timeout <ms>]\n"
               "                  [--replay-upto <u>] [--restore-event <r>:<s>]...\n"
               "                  [--dup-acks]\n"
               "\n"
               "Hosts one node shard of a multi-process deployment (spawned by\n"
               "ssps_deploy; see that tool for the user-facing entry point).\n"
               "\n"
               "options:\n"
               "  --scenario <name>      built-in scenario (must match the fleet)\n"
               "  --seed <u64>           simulation seed (default 1)\n"
               "  --nodes <n>            client population (0 = scenario default)\n"
               "  --scramble             scrambled-start variant (implies oracle)\n"
               "  --oracle               run the invariant oracle at phase ends\n"
               "  --snapshot-every <r>   override the spec's snapshot cadence\n"
               "  --procs <n>            fleet size (daemon count)\n"
               "  --shard <i>            this daemon's shard index in [0, procs)\n"
               "  --port <p>             coordinator's loopback port\n"
               "  --snapshot-dir <dir>   persist owned-node checkpoints here\n"
               "  --round-timeout <ms>   barrier wait deadline (default 120000)\n"
               "  --replay-upto <u>      crash recovery: replay units 1..u\n"
               "                         locally, audit disk snapshots, rejoin\n"
               "  --restore-event <r>:<s>\n"
               "                         recorded lockstep restore of shard <s>\n"
               "                         after unit <r> (repeatable; applied\n"
               "                         during replay)\n"
               "  --dup-acks             send every barrier ack twice (test hook)\n"
               "\n"
               "exit codes: 0 ok, 1 report not ok, 2 bad invocation,\n"
               "3 divergence, 4 handshake rejected, 5 coordinator gone,\n"
               "6 barrier timeout\n");
}

using ssps::cli::parse_u64;

bool parse_restore_event(const char* text, ssps::proc::Restore& out) {
  if (text == nullptr) return false;
  const std::string s = text;
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) return false;
  return parse_u64(s.substr(0, colon).c_str(), out.round) &&
         parse_u64(s.substr(colon + 1).c_str(), out.shard);
}

}  // namespace

int main(int argc, char** argv) {
  ssps::proc::NodedOptions opts;
  std::uint64_t procs = 0;
  std::uint64_t shard = 0;
  std::uint64_t port = 0;
  std::uint64_t timeout_ms = 120000;
  bool have_scenario = false;
  bool have_procs = false;
  bool have_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--scenario") {
      const char* v = value();
      if (v == nullptr) {
        usage(stderr);
        return 2;
      }
      opts.choice.name = v;
      have_scenario = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value(), opts.choice.seed)) {
        std::fprintf(stderr, "ssps_noded: --seed expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--nodes") {
      if (!parse_u64(value(), opts.choice.nodes)) {
        std::fprintf(stderr, "ssps_noded: --nodes expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--scramble") {
      opts.choice.scramble = true;
    } else if (arg == "--oracle") {
      opts.choice.oracle = true;
    } else if (arg == "--snapshot-every") {
      if (!parse_u64(value(), opts.choice.snapshot_every)) {
        std::fprintf(stderr,
                     "ssps_noded: --snapshot-every expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--procs") {
      if (!parse_u64(value(), procs) || procs == 0) {
        std::fprintf(stderr, "ssps_noded: --procs expects a positive integer\n");
        return 2;
      }
      have_procs = true;
    } else if (arg == "--shard") {
      if (!parse_u64(value(), shard)) {
        std::fprintf(stderr, "ssps_noded: --shard expects an unsigned integer\n");
        return 2;
      }
    } else if (arg == "--port") {
      if (!parse_u64(value(), port) || port == 0 || port > 65535) {
        std::fprintf(stderr, "ssps_noded: --port expects a TCP port\n");
        return 2;
      }
      have_port = true;
    } else if (arg == "--snapshot-dir") {
      const char* v = value();
      if (v == nullptr) {
        usage(stderr);
        return 2;
      }
      opts.snapshot_dir = v;
    } else if (arg == "--round-timeout") {
      if (!parse_u64(value(), timeout_ms) || timeout_ms == 0) {
        std::fprintf(stderr,
                     "ssps_noded: --round-timeout expects milliseconds\n");
        return 2;
      }
    } else if (arg == "--replay-upto") {
      if (!parse_u64(value(), opts.replay_upto) || opts.replay_upto == 0) {
        std::fprintf(stderr,
                     "ssps_noded: --replay-upto expects a positive unit\n");
        return 2;
      }
    } else if (arg == "--restore-event") {
      ssps::proc::Restore ev;
      if (!parse_restore_event(value(), ev)) {
        std::fprintf(stderr, "ssps_noded: --restore-event expects <round>:<shard>\n");
        return 2;
      }
      opts.replay_restores.push_back(ev);
    } else if (arg == "--dup-acks") {
      opts.dup_acks = true;
    } else {
      std::fprintf(stderr, "ssps_noded: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (!have_scenario || !have_procs || !have_port) {
    usage(stderr);
    return 2;
  }
  opts.procs = static_cast<std::size_t>(procs);
  opts.shard = static_cast<std::size_t>(shard);
  opts.port = static_cast<std::uint16_t>(port);
  opts.round_timeout_ms = static_cast<int>(timeout_ms);
  return ssps::proc::run_noded(opts);
}
