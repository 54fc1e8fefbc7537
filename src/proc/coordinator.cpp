#include "proc/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/handshake.hpp"
#include "net/socket.hpp"
#include "proc/barrier.hpp"
#include "proc/noded.hpp"
#include "scenario/json.hpp"
#include "scenario/report.hpp"

namespace ssps::proc {
namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

struct Conn {
  net::Socket sock;
  net::FrameAssembler stream;
  pid_t pid = -1;
};

class Coordinator {
 public:
  explicit Coordinator(const DeployOptions& opts)
      : opts_(opts), tracker_(opts.procs), conns_(opts.procs), forward_(opts.procs) {}

  int run() {
    std::optional<net::Listener> listener = net::Listener::bind_local(0);
    if (!listener) {
      fail("cannot bind a loopback listener");
      return 1;
    }
    listener_ = std::move(*listener);
    for (std::size_t shard = 0; shard < opts_.procs; ++shard) {
      const pid_t pid = spawn_daemon(shard, 0);
      if (pid < 0) abort_deployment("failed to spawn ssps_noded");
      conns_[shard].pid = pid;
    }
    // Daemons race to connect; each Hello names its shard (shard + 1, so
    // shard 0 is distinct from the null id), which maps the connection.
    for (std::size_t i = 0; i < opts_.procs; ++i) {
      if (!accept_daemon(kNoShard)) abort_deployment("the fleet did not assemble");
    }

    const auto start = std::chrono::steady_clock::now();
    auto released = start;
    for (std::size_t unit = 1; barrier(unit); ++unit) {
      units_ = unit;
      released = std::chrono::steady_clock::now();
    }
    wall_ms_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(released - start)
            .count());

    shutdown_fleet();
    const int code = reap_fleet();
    if (code < 0 || !emit()) return 1;
    return code;
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
    return true;
  }

  void shutdown_fleet() {
    std::vector<std::uint8_t> frame;
    encode_ctrl(Shutdown{}, frame);
    for (Conn& conn : conns_) {
      if (conn.sock.valid()) conn.sock.send_all(frame);
    }
  }

  /// Waits for every daemon. A daemon that agreed on the report exits
  /// kExitOk, or kExitReportNotOk when the report is not ok; returns the
  /// worse of the two, or -1 when a daemon exited any other way.
  int reap_fleet() {
    int code = kExitOk;
    for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
      int status = 0;
      ::waitpid(conns_[shard].pid, &status, 0);
      conns_[shard].pid = -1;
      const int exited = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      if (exited != kExitOk && exited != kExitReportNotOk) {
        std::fprintf(stderr, "ssps_deploy: shard %zu daemon exited abnormally\n",
                     shard);
        code = -1;
      } else if (code != -1 && exited == kExitReportNotOk) {
        code = kExitReportNotOk;
      }
    }
    return code;
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

  /// Runs the barrier for `unit`: gathers every daemon's relays and ack,
  /// then releases the unit. False when the daemons sent their final
  /// reports instead of acks: the run is over.
  bool barrier(std::size_t unit) {
    tracker_.begin_round(unit);
    const std::size_t doomed =
        opts_.kill_shard >= 0 && unit == opts_.kill_round
            ? static_cast<std::size_t>(opts_.kill_shard)
            : kNoShard;
    if (!gather(unit, doomed)) return false;
    check_digests(unit);
    if (doomed != kNoShard) {
      // gather killed it on its ack; its replacement sends the unit's
      // relays and ack again.
      respawn(unit, doomed);
      gather(unit, kNoShard);
      check_digests(unit);
    }
    if (!tracker_.verify_relay_counts()) {
      abort_deployment("relay count disagrees with a shard's ack");
    }

    // Forward: relays first, then restore events, then the release — the
    // per-connection order every daemon's barrier_wait depends on.
    for (std::size_t target = 0; target < opts_.procs; ++target) {
      std::vector<std::uint8_t>& out = forward_[target];
      if (doomed != kNoShard) encode_ctrl(Restore{unit, doomed}, out);
      encode_ctrl(RoundGo{unit + 1}, out);
      if (!conns_[target].sock.send_all(out)) {
        abort_deployment("lost shard " + std::to_string(target) +
                         " while forwarding");
      }
      out.clear();
    }
    if (doomed != kNoShard) restore_events_.push_back(Restore{unit, doomed});
    return true;
  }

  /// Aborts when the acks of round `unit` disagreed, naming the shards a
  /// strict majority outvotes — or, with no strict majority, every shard
  /// with its digest. Called once every live shard has acked: the odd
  /// shard is not the one whose ack happened to arrive second.
  void check_digests(std::size_t unit) {
    const std::vector<std::size_t> odd = tracker_.odd_shards();
    if (odd.empty()) return;
    const std::optional<std::uint64_t> majority = tracker_.majority_digest();
    std::string list;
    for (const std::size_t shard : odd) {
      if (!list.empty()) list += ", ";
      list += std::to_string(shard);
      if (!majority) list += " (" + hex_digest(tracker_.digest_of(shard)) + ")";
    }
    std::string what = "divergence at round " + std::to_string(unit) + ": ";
    if (!majority) {
      what += "no majority digest among shards " + list;
    } else {
      const char* who = odd.size() == 1 ? "shard " : "shards ";
      const char* verb = odd.size() == 1 ? " disagrees" : " disagree";
      what += who + list + verb + " with the majority digest " + hex_digest(*majority);
    }
    abort_deployment(what);
  }

  static std::string hex_digest(std::uint64_t digest) {
    char text[19];
    std::snprintf(text, sizeof text, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return text;
  }

  /// Drains daemon traffic until every live shard has acked round `unit`
  /// (true) or every shard has sent its final report (false). Any EOF
  /// aborts: the one death the run plans, `doomed`'s, is the coordinator's
  /// own SIGKILL, after which nothing more is read from it.
  bool gather(std::size_t unit, std::size_t doomed) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.round_timeout_ms);
    while (!tracker_.complete() && reports_ < opts_.procs) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> owner;
      for (std::size_t shard = 0; shard < opts_.procs; ++shard) {
        if (!conns_[shard].sock.valid()) continue;
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
        if (got == 0) abort_deployment(closed_reason(shard, unit));
        if (got < 0) continue;  // spurious wakeup
        drain_frames(shard, unit, doomed);
      }
    }
    return reports_ == 0;
  }

  /// Why `shard`'s daemon closed its connection before acking `unit`.
  std::string closed_reason(std::size_t shard, std::size_t unit) {
    int status = 0;
    ::waitpid(conns_[shard].pid, &status, 0);
    conns_[shard].pid = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == kExitDivergence) {
      return "divergence: shard " + std::to_string(shard) +
             " found it before acking round " + std::to_string(unit);
    }
    return "shard " + std::to_string(shard) + " daemon died unexpectedly";
  }

  /// Handles every complete frame buffered from `shard`. A frame is a
  /// view into the shard's stream, so each is handled before the next
  /// read feeds the stream.
  void drain_frames(std::size_t shard, std::size_t unit, std::size_t doomed) {
    Conn& conn = conns_[shard];
    while (conn.sock.valid()) {
      const std::optional<std::span<const std::uint8_t>> frame = conn.stream.next();
      if (!frame) break;
      const CtrlParse parsed = parse_ctrl(*frame);
      if (!parsed.ok()) {
        abort_deployment("undecodable frame from shard " + std::to_string(shard));
      }
      handle_frame(shard, *frame, *parsed.msg, unit, doomed);
    }
    if (conn.stream.failed()) {
      abort_deployment("oversized frame from shard " + std::to_string(shard));
    }
  }

  /// A Relay `frame` goes, exactly as received, to its target's forward
  /// buffer, unless it is `doomed`'s: that shard is killed when its ack
  /// arrives, and its respawned daemon sends the unit's relays again.
  void handle_frame(std::size_t shard, std::span<const std::uint8_t> frame,
                    const CtrlMsg& msg, std::size_t unit, std::size_t doomed) {
    if (const auto* relay = std::get_if<Relay>(&msg)) {
      if (shard_of(sim::NodeId{relay->from}, opts_.procs) != shard) {
        abort_deployment("shard " + std::to_string(shard) +
                         " relayed another shard's send");
      }
      tracker_.count_relay(shard);
      if (shard == doomed) return;
      std::vector<std::uint8_t>& out =
          forward_[shard_of(sim::NodeId{relay->to}, opts_.procs)];
      out.insert(out.end(), frame.begin(), frame.end());
      relays_forwarded_ += 1;
      relay_bytes_ += relay->frame.size();
      return;
    }
    if (const auto* done = std::get_if<RoundDone>(&msg)) {
      if (reports_ > 0) {
        abort_deployment("shard " + std::to_string(shard) +
                         " acked a round another shard's run had finished");
      }
      tracker_.claim_relays(shard, done->relays);
      switch (tracker_.round_done(shard, done->round, done->digest)) {
        case BarrierTracker::Ack::kAccepted:
          if (shard == doomed) {
            // Per-connection order: every frame it sent this unit has
            // arrived, so none of them reaches a target.
            ::kill(conns_[shard].pid, SIGKILL);
            conns_[shard].sock.close();
            tracker_.mark_dead(shard);
          }
          return;
        case BarrierTracker::Ack::kDuplicate:
        case BarrierTracker::Ack::kStale:
          return;
        case BarrierTracker::Ack::kWrongRound:
          abort_deployment("shard " + std::to_string(shard) +
                           " acked a future round");
        case BarrierTracker::Ack::kDigestMismatch:
          // Recorded; the barrier names the odd shards once every live
          // shard has acked (check_digests). Nothing is forwarded before
          // the release anyway.
          return;
      }
      return;
    }
    if (const auto* report = std::get_if<Report>(&msg)) {
      // The run ends for every replica at the same unit: a report is due
      // only while no shard has acked (or been killed at) this one.
      if (tracker_.missing().size() != opts_.procs) {
        abort_deployment("shard " + std::to_string(shard) +
                         " finished its run while others acked round " +
                         std::to_string(unit));
      }
      if (reports_ == 0) {
        report_ = report->json;
      } else if (report->json != report_) {
        abort_deployment("divergence: shard " + std::to_string(shard) +
                         "'s final report is not byte-identical to the "
                         "first one received");
      }
      reports_ += 1;
      return;
    }
    abort_deployment("unexpected control frame from shard " +
                     std::to_string(shard));
  }

  /// Replaces the killed shard's process. The replacement replays units
  /// 1..unit locally, audits its disk snapshots, then sends the unit's
  /// relays and its rejoin ack like any daemon, for the caller to gather.
  void respawn(std::size_t unit, std::size_t killed) {
    int status = 0;
    ::waitpid(conns_[killed].pid, &status, 0);
    conns_[killed].pid = -1;

    const pid_t pid = spawn_daemon(killed, unit);
    if (pid < 0) abort_deployment("failed to respawn ssps_noded");
    conns_[killed].pid = pid;
    if (!accept_daemon(killed)) abort_deployment("respawn handshake failed");
    respawns_ += 1;
    tracker_.mark_alive(killed);
  }

  // ---- finalization -----------------------------------------------------

  /// Emits the agreed report, an ssps_run-compatible document, plus flat
  /// "deploy_*" scalars. Keys sort between "converged" and "threads" in
  /// the top-level object, so a differential harness strips them with a
  /// plain `grep -v '"deploy_'` without breaking JSON commas.
  bool emit() {
    scenario::Json deploy = scenario::Json::object();
    deploy["deploy_procs"] = static_cast<std::uint64_t>(opts_.procs);
    deploy["deploy_transport"] = "tcp-localhost";
    deploy["deploy_rounds"] = static_cast<std::uint64_t>(units_);
    deploy["deploy_wall_ms"] = wall_ms_;
    deploy["deploy_rounds_per_sec"] =
        wall_ms_ > 0 ? static_cast<double>(units_) * 1000.0 /
                           static_cast<double>(wall_ms_)
                     : 0.0;
    deploy["deploy_relays"] = relays_forwarded_;
    deploy["deploy_relay_bytes"] = relay_bytes_;
    deploy["deploy_respawns"] = respawns_;
    const std::optional<std::string> text = scenario::splice_dump(report_, deploy);
    if (!text) return fail("the agreed report is not a JSON object");
    if (!opts_.out_path.empty() && !scenario::write_text_file(opts_.out_path, *text)) {
      return fail("cannot write the --out file");
    }
    if (!opts_.quiet) std::printf("%s\n", text->c_str());
    return true;
  }

  bool fail(const char* what) {
    std::fprintf(stderr, "ssps_deploy: %s\n", what);
    return false;
  }

  DeployOptions opts_;
  BarrierTracker tracker_;
  net::Listener listener_;
  std::vector<Conn> conns_;
  /// Per target shard, the frames to forward at this unit's release: the
  /// Relay frames as received, then Restore and RoundGo. Cleared after
  /// each write, kept across units.
  std::vector<std::vector<std::uint8_t>> forward_;
  std::vector<Restore> restore_events_;
  /// The first final report received, and how many daemons have sent one.
  std::string report_;
  std::size_t reports_ = 0;
  std::size_t units_ = 0;
  std::uint64_t wall_ms_ = 0;
  std::uint64_t relays_forwarded_ = 0;
  std::uint64_t relay_bytes_ = 0;
  std::uint64_t respawns_ = 0;
};

}  // namespace

int run_deploy(const DeployOptions& opts) {
  if (opts.procs < 2 || opts.noded_path.empty()) {
    std::fprintf(stderr,
                 "ssps_deploy: need --procs >= 2 (every barrier digest is "
                 "checked by a second daemon) and --noded PATH\n");
    return 2;
  }
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
  Coordinator coordinator(opts);
  return coordinator.run();
}

}  // namespace ssps::proc
