#include "proc/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/handshake.hpp"
#include "net/socket.hpp"
#include "proc/barrier.hpp"
#include "scenario/json.hpp"
#include "scenario/report.hpp"

namespace ssps::proc {
namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

struct Conn {
  net::Socket sock;
  net::FrameAssembler stream;
  pid_t pid = -1;
  bool eof = false;
};

class Coordinator {
 public:
  Coordinator(const DeployOptions& opts, scenario::ScenarioSpec spec)
      : opts_(opts),
        replica_(std::move(spec), opts.procs),
        tracker_(opts.procs),
        conns_(opts.procs),
        forward_(opts.procs) {}

  int run() {
    std::optional<net::Listener> listener = net::Listener::bind_local(0);
    if (!listener) return fail("cannot bind a loopback listener");
    listener_ = std::move(*listener);
    for (std::size_t shard = 0; shard < opts_.procs; ++shard) {
      const pid_t pid = spawn_daemon(shard, 0);
      if (pid < 0) return fail("failed to spawn ssps_noded");
      conns_[shard].pid = pid;
    }
    // Daemons race to connect; each Hello names its shard (shard + 1, so
    // shard 0 is distinct from the null id), which maps the connection.
    for (std::size_t i = 0; i < opts_.procs; ++i) {
      if (!accept_daemon(kNoShard)) return 1;
    }

    const auto start = std::chrono::steady_clock::now();
    replica_.install_lockstep([this](std::size_t unit) { barrier(unit); });
    const scenario::ScenarioReport& report = replica_.run();
    wall_ms_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    const std::string own_json = report.to_json().dump(2);
    if (!compare_reports(own_json)) return 1;
    shutdown_fleet();
    if (!reap_fleet()) return 1;
    if (opts_.diff_sim && !diff_against_sim(own_json)) return 1;
    emit(report, own_json);
    return report.ok && report.oracle_ok ? 0 : 1;
  }

 private:
  // ---- fleet management -------------------------------------------------

  pid_t spawn_daemon(std::size_t shard, std::uint64_t replay_upto) {
    std::vector<std::string> args;
    args.push_back(opts_.noded_path);
    args.push_back("--scenario");
    args.push_back(opts_.choice.name);
    args.push_back("--seed");
    args.push_back(std::to_string(opts_.choice.seed));
    args.push_back("--nodes");
    args.push_back(std::to_string(opts_.choice.nodes));
    if (opts_.choice.scramble) args.push_back("--scramble");
    if (opts_.choice.oracle) args.push_back("--oracle");
    if (opts_.choice.snapshot_every > 0) {
      args.push_back("--snapshot-every");
      args.push_back(std::to_string(opts_.choice.snapshot_every));
    }
    args.push_back("--procs");
    args.push_back(std::to_string(opts_.procs));
    args.push_back("--shard");
    args.push_back(std::to_string(shard));
    args.push_back("--port");
    args.push_back(std::to_string(listener_.port()));
    args.push_back("--round-timeout");
    args.push_back(std::to_string(opts_.round_timeout_ms));
    if (!opts_.snapshot_dir.empty()) {
      args.push_back("--snapshot-dir");
      args.push_back(opts_.snapshot_dir);
    }
    if (opts_.dup_acks) args.push_back("--dup-acks");
    if (replay_upto > 0) {
      args.push_back("--replay-upto");
      args.push_back(std::to_string(replay_upto));
      for (const Restore& ev : restore_events_) {
        args.push_back("--restore-event");
        args.push_back(std::to_string(ev.round) + ":" + std::to_string(ev.shard));
      }
    }

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "ssps_deploy: execv(%s) failed\n", argv[0]);
      ::_exit(127);
    }
    return pid;
  }

  /// Accepts one daemon connection and maps it by the shard its Hello
  /// claims. `want` = kNoShard accepts any not-yet-connected shard
  /// (startup); otherwise the connection must be the respawned shard.
  bool accept_daemon(std::size_t want) {
    std::optional<net::Socket> sock =
        listener_.accept_one(opts_.round_timeout_ms);
    if (!sock) return fail("timed out waiting for a daemon to connect");
    net::FrameAssembler stream;
    const net::HelloResult hello =
        net::expect_hello(*sock, stream, opts_.round_timeout_ms);
    if (!hello.ok) {
      std::fprintf(stderr, "ssps_deploy: daemon handshake rejected: %s\n",
                   wire::decode_status_name(hello.status));
      return false;
    }
    if (hello.node.value < 1 || hello.node.value > opts_.procs) {
      return fail("daemon claimed an out-of-range shard");
    }
    const std::size_t shard = static_cast<std::size_t>(hello.node.value - 1);
    if (want != kNoShard && shard != want) {
      return fail("respawned daemon claimed the wrong shard");
    }
    if (want == kNoShard && conns_[shard].sock.valid()) {
      return fail("two daemons claimed the same shard");
    }
    if (!net::send_hello(*sock, sim::NodeId{0})) {
      return fail("hello reply failed");
    }
    conns_[shard].sock = std::move(*sock);
    conns_[shard].stream = std::move(stream);
    conns_[shard].eof = false;
    return true;
  }

  void shutdown_fleet() {
    std::vector<std::uint8_t> frame;
    encode_ctrl(Shutdown{}, frame);
    for (Conn& conn : conns_) {
      if (conn.sock.valid() && !conn.eof) conn.sock.send_all(frame);
    }
  }

  bool reap_fleet() {
    bool ok = true;
    for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
      if (conns_[shard].pid < 0) continue;
      int status = 0;
      ::waitpid(conns_[shard].pid, &status, 0);
      conns_[shard].pid = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "ssps_deploy: shard %zu daemon exited abnormally\n",
                     shard);
        ok = false;
      }
    }
    return ok;
  }

  [[noreturn]] void abort_deployment(const std::string& what) {
    std::fprintf(stderr, "ssps_deploy: %s\n", what.c_str());
    for (Conn& conn : conns_) {
      if (conn.pid > 0) ::kill(conn.pid, SIGKILL);
    }
    for (Conn& conn : conns_) {
      if (conn.pid > 0) {
        int status = 0;
        ::waitpid(conn.pid, &status, 0);
        conn.pid = -1;
      }
    }
    std::exit(1);
  }

  // ---- the barrier ------------------------------------------------------

  void barrier(std::size_t unit) {
    units_ = unit;
    // Every replica digests the same pre-restore state point: daemons in
    // RoundDone, the coordinator here.
    const std::uint64_t expect = replica_.digest();
    tracker_.begin_round(unit, expect);

    std::size_t killed = kNoShard;
    if (opts_.kill_shard >= 0 && !kill_done_ &&
        unit == static_cast<std::size_t>(opts_.kill_round)) {
      killed = static_cast<std::size_t>(opts_.kill_shard);
      ::kill(conns_[killed].pid, SIGKILL);
      kill_done_ = true;
    }

    gather(unit, killed);
    if (!tracker_.verify_relay_counts()) {
      abort_deployment("relay count disagrees with a shard's ack");
    }

    if (killed != kNoShard) respawn(unit, killed);

    // Forward: relays first, then restore events, then the release — the
    // per-connection order every daemon's barrier_wait depends on.
    for (std::size_t target = 0; target < opts_.procs; ++target) {
      std::vector<std::uint8_t>& out = forward_[target];
      if (killed != kNoShard) encode_ctrl(Restore{unit, killed}, out);
      encode_ctrl(RoundGo{unit + 1}, out);
      if (!conns_[target].sock.send_all(out)) {
        abort_deployment("lost shard " + std::to_string(target) +
                         " while forwarding");
      }
      out.clear();
    }
    if (killed != kNoShard) {
      restore_events_.push_back(Restore{unit, killed});
      replica_.apply_restore(killed);
    }
  }

  /// Drains daemon traffic until every shard has acked round `unit` or
  /// died. Only the scheduled kill may die; any other EOF aborts.
  void gather(std::size_t unit, std::size_t killed) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.round_timeout_ms);
    while (!tracker_.complete()) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> owner;
      for (std::size_t shard = 0; shard < opts_.procs; ++shard) {
        if (conns_[shard].eof || !conns_[shard].sock.valid()) continue;
        fds.push_back({conns_[shard].sock.fd(), POLLIN, 0});
        owner.push_back(shard);
      }
      if (fds.empty()) abort_deployment("barrier cannot complete: no peers left");
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        std::string who;
        for (const std::size_t shard : tracker_.missing()) {
          who += (who.empty() ? "" : ",") + std::to_string(shard);
        }
        abort_deployment("barrier timeout at round " + std::to_string(unit) +
                         ", missing shards: " + who);
      }
      const int ready =
          ::poll(fds.data(), fds.size(), static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        abort_deployment("poll failed");
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const std::size_t shard = owner[i];
        const int got = conns_[shard].sock.recv_into(conns_[shard].stream, 0);
        if (got == 0) {
          conns_[shard].eof = true;
          if (shard == killed) {
            tracker_.mark_dead(shard);
          } else {
            abort_deployment("shard " + std::to_string(shard) +
                             " daemon died unexpectedly");
          }
          continue;
        }
        if (got < 0) continue;  // spurious wakeup
        drain_frames(shard, unit, killed);
      }
    }
  }

  /// Handles every complete frame buffered from `shard`. A frame is a
  /// view into the shard's stream, so each is handled before the next
  /// read feeds the stream.
  void drain_frames(std::size_t shard, std::size_t unit, std::size_t killed) {
    Conn& conn = conns_[shard];
    while (const std::optional<std::span<const std::uint8_t>> frame =
               conn.stream.next()) {
      const CtrlParse parsed = parse_ctrl(*frame);
      if (!parsed.ok()) {
        abort_deployment("undecodable frame from shard " + std::to_string(shard));
      }
      handle_frame(shard, *frame, *parsed.msg, unit, shard != killed);
    }
    if (conn.stream.failed()) {
      abort_deployment("oversized frame from shard " + std::to_string(shard));
    }
  }

  /// A verified Relay `frame` goes, exactly as received, to its target's
  /// forward buffer, unless `forward` is false: a shard killed this unit
  /// has its whole outbox regenerated at respawn instead.
  void handle_frame(std::size_t shard, std::span<const std::uint8_t> frame,
                    const CtrlMsg& msg, std::size_t unit, bool forward) {
    if (const auto* relay = std::get_if<Relay>(&msg)) {
      if (shard_of(sim::NodeId{relay->from}, opts_.procs) != shard) {
        abort_deployment("shard " + std::to_string(shard) +
                         " relayed another shard's send");
      }
      const Replica::RelayCheck check = replica_.verify_relay(*relay);
      if (check != Replica::RelayCheck::kOk) {
        abort_deployment("divergence at round " + std::to_string(unit) +
                         ": relay from shard " + std::to_string(shard) + ": " +
                         Replica::relay_check_name(check));
      }
      tracker_.count_relay(shard);
      if (!forward) return;
      std::vector<std::uint8_t>& out =
          forward_[shard_of(sim::NodeId{relay->to}, opts_.procs)];
      out.insert(out.end(), frame.begin(), frame.end());
      relays_forwarded_ += 1;
      relay_bytes_ += relay->frame.size();
      return;
    }
    if (const auto* done = std::get_if<RoundDone>(&msg)) {
      tracker_.claim_relays(shard, done->relays);
      const BarrierTracker::Ack ack =
          tracker_.round_done(shard, done->round, done->digest);
      switch (ack) {
        case BarrierTracker::Ack::kAccepted:
        case BarrierTracker::Ack::kDuplicate:
        case BarrierTracker::Ack::kStale:
          return;
        case BarrierTracker::Ack::kWrongRound:
          abort_deployment("shard " + std::to_string(shard) +
                           " acked a future round");
        case BarrierTracker::Ack::kDigestMismatch:
          abort_deployment("divergence at round " + std::to_string(unit) +
                           ": shard " + std::to_string(shard) +
                           " digest mismatch");
      }
      return;
    }
    abort_deployment("unexpected control frame from shard " +
                     std::to_string(shard));
  }

  /// Replaces the killed shard's process: replay-respawn, re-handshake,
  /// digest-check its rejoin ack, and regenerate its outbox from the
  /// coordinator's own (already verified) replica with the daemons'
  /// writer — whatever the dead process managed to send before the kill
  /// was never buffered, so the fleet never consumes a half-delivered
  /// round.
  void respawn(std::size_t unit, std::size_t killed) {
    int status = 0;
    ::waitpid(conns_[killed].pid, &status, 0);
    conns_[killed].pid = -1;
    conns_[killed].sock.close();

    const Replica::Outbox outbox = replica_.write_outbox(
        killed, [this](std::size_t target) -> std::vector<std::uint8_t>& {
          return forward_[target];
        });
    relays_forwarded_ += outbox.relays;
    relay_bytes_ += outbox.bytes;

    const pid_t pid = spawn_daemon(killed, unit);
    if (pid < 0) abort_deployment("failed to respawn ssps_noded");
    conns_[killed].pid = pid;
    if (!accept_daemon(killed)) abort_deployment("respawn handshake failed");
    respawns_ += 1;

    // The respawned replica replays units 1..unit locally, audits its disk
    // snapshots, then acks the current round (no relays — see outbox above).
    const std::optional<std::span<const std::uint8_t>> frame =
        conns_[killed].sock.read_frame(conns_[killed].stream,
                                       opts_.round_timeout_ms);
    if (!frame) abort_deployment("respawned daemon sent no rejoin ack");
    CtrlParse parsed = parse_ctrl(*frame);
    const auto* done =
        parsed.ok() ? std::get_if<RoundDone>(&*parsed.msg) : nullptr;
    if (done == nullptr || done->round != unit) {
      abort_deployment("respawned daemon's rejoin ack is malformed");
    }
    tracker_.mark_alive(killed);
    tracker_.claim_relays(killed, done->relays);
    const BarrierTracker::Ack ack =
        tracker_.round_done(killed, done->round, done->digest);
    // kDuplicate is fine: the old process may have acked before the kill
    // landed (digest is checked before duplicate detection).
    if (ack != BarrierTracker::Ack::kAccepted &&
        ack != BarrierTracker::Ack::kDuplicate) {
      abort_deployment("divergence: respawned shard " + std::to_string(killed) +
                       " replayed to a different digest");
    }
  }

  // ---- finalization -----------------------------------------------------

  bool compare_reports(const std::string& own_json) {
    for (std::size_t shard = 0; shard < opts_.procs; ++shard) {
      const std::optional<std::span<const std::uint8_t>> frame =
          conns_[shard].sock.read_frame(conns_[shard].stream, opts_.round_timeout_ms);
      if (!frame) {
        abort_deployment("shard " + std::to_string(shard) + " sent no report");
      }
      CtrlParse parsed = parse_ctrl(*frame);
      const auto* report =
          parsed.ok() ? std::get_if<Report>(&*parsed.msg) : nullptr;
      if (report == nullptr) {
        abort_deployment("shard " + std::to_string(shard) +
                         " sent a non-report frame at end of run");
      }
      if (report->json != own_json) {
        std::fprintf(stderr,
                     "ssps_deploy: divergence: shard %zu's final report is not "
                     "byte-identical to the coordinator's\n",
                     shard);
        shutdown_fleet();
        reap_fleet();
        return false;
      }
    }
    return true;
  }

  bool diff_against_sim(const std::string& own_json) {
    scenario::ScenarioSpec spec;
    if (!build_scenario(opts_.choice, spec)) return false;
    scenario::ScenarioRunner pure(std::move(spec));
    const std::string sim_json = pure.run().to_json().dump(2);
    if (sim_json != own_json) {
      std::fprintf(stderr,
                   "ssps_deploy: divergence: live report differs from the "
                   "in-process simulator's\n");
      return false;
    }
    if (!opts_.quiet) {
      std::fprintf(stderr, "ssps_deploy: live report byte-identical to sim\n");
    }
    return true;
  }

  /// The final report is the replica's own ssps_run-compatible document
  /// plus flat "deploy_*" scalars. Keys sort between "converged" and
  /// "threads" in the top-level object, so a differential harness strips
  /// them with a plain `grep -v '"deploy_'` without breaking JSON commas.
  void emit(const scenario::ScenarioReport& report, const std::string& own_json) {
    (void)own_json;
    scenario::Json doc = report.to_json();
    doc["deploy_procs"] = static_cast<std::uint64_t>(opts_.procs);
    doc["deploy_transport"] = "tcp-localhost";
    doc["deploy_rounds"] = static_cast<std::uint64_t>(units_);
    doc["deploy_wall_ms"] = wall_ms_;
    doc["deploy_rounds_per_sec"] =
        wall_ms_ > 0 ? static_cast<double>(units_) * 1000.0 /
                           static_cast<double>(wall_ms_)
                     : 0.0;
    doc["deploy_relays"] = relays_forwarded_;
    doc["deploy_relay_bytes"] = relay_bytes_;
    doc["deploy_respawns"] = respawns_;
    const std::string text = doc.dump(2);
    if (!opts_.out_path.empty()) {
      scenario::write_json_file(opts_.out_path, doc);
    }
    if (!opts_.quiet) std::printf("%s\n", text.c_str());
  }

  bool fail(const char* what) {
    std::fprintf(stderr, "ssps_deploy: %s\n", what);
    return false;
  }

  DeployOptions opts_;
  Replica replica_;
  BarrierTracker tracker_;
  net::Listener listener_;
  std::vector<Conn> conns_;
  /// Per target shard, the frames to forward at this unit's release: the
  /// verified Relay frames as received, then Restore and RoundGo. Cleared
  /// after each write, kept across units.
  std::vector<std::vector<std::uint8_t>> forward_;
  std::vector<Restore> restore_events_;
  bool kill_done_ = false;
  std::size_t units_ = 0;
  std::uint64_t wall_ms_ = 0;
  std::uint64_t relays_forwarded_ = 0;
  std::uint64_t relay_bytes_ = 0;
  std::uint64_t respawns_ = 0;
};

}  // namespace

int run_deploy(const DeployOptions& opts) {
  scenario::ScenarioSpec spec;
  if (!build_scenario(opts.choice, spec)) {
    std::fprintf(stderr, "ssps_deploy: unknown scenario '%s'\n",
                 opts.choice.name.c_str());
    return 2;
  }
  const std::string unsupported = deploy_unsupported(spec);
  if (!unsupported.empty()) {
    std::fprintf(stderr, "ssps_deploy: %s\n", unsupported.c_str());
    return 2;
  }
  if (opts.procs < 1 || opts.noded_path.empty()) {
    std::fprintf(stderr, "ssps_deploy: need --procs >= 1 and --noded PATH\n");
    return 2;
  }
  if (opts.kill_shard >= 0) {
    if (static_cast<std::size_t>(opts.kill_shard) >= opts.procs ||
        opts.kill_round < 1) {
      std::fprintf(stderr, "ssps_deploy: kill shard/round out of range\n");
      return 2;
    }
    if (spec.mode != scenario::Mode::kSingleTopic) {
      std::fprintf(stderr,
                   "ssps_deploy: kill/respawn is gated to single-topic "
                   "scenarios (lockstep restore events)\n");
      return 2;
    }
  }
  Coordinator coordinator(opts, std::move(spec));
  return coordinator.run();
}

}  // namespace ssps::proc
