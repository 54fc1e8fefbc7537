#include "proc/noded.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/handshake.hpp"
#include "net/socket.hpp"
#include "proc/snapshot_store.hpp"
#include "wire/codec.hpp"

namespace ssps::proc {
namespace {

constexpr int kExitBadSpec = 2;
constexpr int kExitDivergence = 3;
constexpr int kExitHandshake = 4;
constexpr int kExitCoordinatorGone = 5;
constexpr int kExitTimeout = 6;

class Daemon {
 public:
  Daemon(const NodedOptions& opts, scenario::ScenarioSpec spec)
      : opts_(opts), replica_(std::move(spec), opts.procs) {
    if (!opts_.snapshot_dir.empty()) store_.emplace(opts_.snapshot_dir);
    replay_events_ = opts_.replay_restores;
    std::sort(replay_events_.begin(), replay_events_.end(),
              [](const Restore& a, const Restore& b) { return a.round < b.round; });
  }

  int run() {
    std::optional<net::Socket> sock =
        net::Socket::connect_local(opts_.port, opts_.round_timeout_ms);
    if (!sock) {
      std::fprintf(stderr, "ssps_noded[%zu]: cannot reach coordinator on port %u\n",
                   opts_.shard, static_cast<unsigned>(opts_.port));
      return kExitCoordinatorGone;
    }
    sock_ = std::move(*sock);
    // Daemons identify as shard+1 so shard 0 stays distinct from the null id.
    if (!net::send_hello(sock_, sim::NodeId{opts_.shard + 1})) {
      return fail(kExitHandshake, "hello send failed");
    }
    const net::HelloResult hello =
        net::expect_hello(sock_, stream_, opts_.round_timeout_ms);
    if (!hello.ok) {
      std::fprintf(stderr, "ssps_noded[%zu]: handshake rejected: %s\n", opts_.shard,
                   wire::decode_status_name(hello.status));
      return kExitHandshake;
    }
    replica_.install_lockstep([this](std::size_t unit) { barrier(unit); });
    const scenario::ScenarioReport& report = replica_.run();
    queue(Report{report.to_json().dump(2)});
    flush();
    // Hold the state until the coordinator has byte-compared every report.
    const std::optional<CtrlMsg> last = read_ctrl(opts_.round_timeout_ms);
    if (!last || !std::holds_alternative<Shutdown>(*last)) {
      return fail(kExitCoordinatorGone, "no shutdown after report");
    }
    return 0;
  }

 private:
  // The barrier. Divergence and protocol failures are fatal to the whole
  // deployment, so the daemon reports and exits right here rather than
  // unwinding through the scheduler.
  void barrier(std::size_t unit) {
    sim::Network& net = replica_.net();
    if (unit < opts_.replay_upto) {
      // Silent local replay, no barrier traffic — but mirror the previous
      // incarnation's persist decisions (track_persist) so the disk audit
      // at rejoin knows which checkpoint values were ever written.
      track_persist(net);
      apply_replay_events(unit);
      return;
    }
    const bool rejoining = opts_.replay_upto > 0 && unit == opts_.replay_upto;
    std::size_t relays = 0;
    if (rejoining) {
      track_persist(net);  // the persist the old incarnation may have died in
      adopt_disk_snapshots(net);
      // The fleet already exchanged this round's relays before we died;
      // the coordinator regenerates our outbox from its own replica.
    } else {
      persist_snapshots(net);
      const std::vector<Relay> outbox = replica_.collect_outbox(opts_.shard);
      for (const Relay& relay : outbox) queue(relay);
      relays = outbox.size();
    }
    RoundDone done;
    done.round = unit;
    done.digest = replica_.digest();
    done.relays = relays;
    queue(done);
    if (opts_.dup_acks) queue(done);  // barrier must dedupe
    flush();
    barrier_wait(unit);
  }

  /// Blocks until the coordinator releases round `unit`, applying the
  /// relays and lockstep restore events that arrive first (per-connection
  /// TCP ordering: relays, then restores, then the release).
  void barrier_wait(std::size_t unit) {
    for (;;) {
      const std::optional<CtrlMsg> msg = read_ctrl(opts_.round_timeout_ms);
      if (!msg) die(stream_.failed() ? kExitCoordinatorGone : kExitTimeout,
                    "barrier wait failed");
      if (const auto* relay = std::get_if<Relay>(&*msg)) {
        const Replica::RelayCheck check = replica_.apply_relay(*relay);
        if (check != Replica::RelayCheck::kOk) {
          std::fprintf(stderr,
                       "ssps_noded[%zu]: divergence at round %zu: relay "
                       "(from=%llu index=%llu): %s\n",
                       opts_.shard, unit,
                       static_cast<unsigned long long>(relay->from),
                       static_cast<unsigned long long>(relay->index),
                       Replica::relay_check_name(check));
          std::exit(kExitDivergence);
        }
        continue;
      }
      if (const auto* restore = std::get_if<Restore>(&*msg)) {
        if (restore->round != unit) die(kExitDivergence, "restore round skew");
        replica_.apply_restore(static_cast<std::size_t>(restore->shard));
        continue;
      }
      if (const auto* go = std::get_if<RoundGo>(&*msg)) {
        if (go->round != unit + 1) die(kExitDivergence, "barrier release skew");
        return;
      }
      if (std::holds_alternative<Shutdown>(*msg)) {
        die(kExitCoordinatorGone, "coordinator aborted the deployment");
      }
      die(kExitDivergence, "unexpected control frame at barrier");
    }
  }

  void apply_replay_events(std::size_t unit) {
    while (next_replay_ < replay_events_.size() &&
           replay_events_[next_replay_].round == unit) {
      replica_.apply_restore(
          static_cast<std::size_t>(replay_events_[next_replay_].shard));
      ++next_replay_;
    }
  }

  /// Replay-time twin of persist_snapshots: applies the same
  /// changed-since-last-write test without touching disk, keeping the last
  /// and second-to-last values each node's file could legally hold (a kill
  /// can lose at most the final rename).
  void track_persist(sim::Network& net) {
    if (!store_) return;
    for (const sim::NodeId id : owned_ids()) {
      const std::vector<std::uint8_t>& snap = net.snapshot_of(id);
      if (snap.empty()) continue;
      auto it = persisted_.find(id);
      if (it != persisted_.end() && it->second == snap) continue;
      if (it != persisted_.end()) prev_persisted_[id] = it->second;
      persisted_[id] = snap;
    }
  }

  /// End-of-replay checkpoint audit. Each owned node's file must hold the
  /// last value the previous incarnation persisted — then the disk bytes
  /// are adopted as the authoritative snapshot — or the one before it
  /// (the kill landed ahead of the final persist; the replayed in-memory
  /// snapshot stays authoritative so every replica restores from the same
  /// bytes). Anything else is a torn or foreign checkpoint: divergence.
  void adopt_disk_snapshots(sim::Network& net) {
    if (!store_) return;
    for (const sim::NodeId id : owned_ids()) {
      std::optional<std::vector<std::uint8_t>> disk = store_->load(id);
      const auto last = persisted_.find(id);
      if (!disk) {
        if (last == persisted_.end()) continue;  // never captured → no file
        if (prev_persisted_.find(id) == prev_persisted_.end()) {
          continue;  // died before this node's only persist
        }
        die(kExitDivergence, "disk snapshot missing for a persisted node");
      }
      if (last != persisted_.end() && *disk == last->second) {
        net.mutable_snapshot(id) = std::move(*disk);
        continue;
      }
      const auto prev = prev_persisted_.find(id);
      if (prev != prev_persisted_.end() && *disk == prev->second) continue;
      die(kExitDivergence, "disk snapshot diverges from replay");
    }
  }

  /// Persists each owned node's checkpoint when it changed since the last
  /// write (snapshot capture itself runs on the simulator's cadence).
  void persist_snapshots(sim::Network& net) {
    if (!store_) return;
    for (const sim::NodeId id : owned_ids()) {
      const std::vector<std::uint8_t>& snap = net.snapshot_of(id);
      if (snap.empty()) continue;
      auto it = persisted_.find(id);
      if (it != persisted_.end() && it->second == snap) continue;
      if (!store_->save(id, snap)) {
        die(kExitBadSpec, "snapshot write failed");
      }
      persisted_[id] = snap;
    }
  }

  std::vector<sim::NodeId> owned_ids() {
    std::vector<sim::NodeId> ids;
    const auto add = [&](sim::NodeId id) {
      if (shard_of(id, replica_.procs()) == opts_.shard) ids.push_back(id);
    };
    if (replica_.runner().spec().mode == scenario::Mode::kSingleTopic) {
      add(replica_.runner().single().supervisor_id());
      for (const sim::NodeId id : replica_.runner().single().subscriber_ids()) {
        add(id);
      }
    } else {
      for (const sim::NodeId id : replica_.runner().supervisor_ids()) add(id);
      for (const sim::NodeId id : replica_.runner().client_ids()) add(id);
    }
    std::sort(ids.begin(), ids.end(),
              [](sim::NodeId a, sim::NodeId b) { return a.value < b.value; });
    return ids;
  }

  /// Appends `msg` to the pending write, writing once kCtrlWriteBytes
  /// are pending; flush() writes the rest.
  void queue(const CtrlMsg& msg) {
    encode_ctrl(msg, out_);
    if (out_.size() >= kCtrlWriteBytes) flush();
  }

  void flush() {
    if (!sock_.send_all(out_)) die(kExitCoordinatorGone, "coordinator hung up");
    out_.clear();
  }

  std::optional<CtrlMsg> read_ctrl(int timeout_ms) {
    const std::optional<std::vector<std::uint8_t>> frame =
        sock_.read_frame(stream_, timeout_ms);
    if (!frame) return std::nullopt;
    CtrlParse parsed = parse_ctrl(*frame);
    if (!parsed.ok()) die(kExitDivergence, "undecodable control frame");
    return std::move(parsed.msg);
  }

  [[noreturn]] void die(int code, const char* what) {
    std::fprintf(stderr, "ssps_noded[%zu]: %s\n", opts_.shard, what);
    std::exit(code);
  }

  int fail(int code, const char* what) {
    std::fprintf(stderr, "ssps_noded[%zu]: %s\n", opts_.shard, what);
    return code;
  }

  NodedOptions opts_;
  Replica replica_;
  net::Socket sock_;
  net::FrameAssembler stream_;
  std::vector<std::uint8_t> out_;  // frames pending for the coordinator
  std::optional<SnapshotStore> store_;
  std::map<sim::NodeId, std::vector<std::uint8_t>> persisted_;
  std::map<sim::NodeId, std::vector<std::uint8_t>> prev_persisted_;
  std::vector<Restore> replay_events_;
  std::size_t next_replay_ = 0;
};

}  // namespace

int run_noded(const NodedOptions& opts) {
  scenario::ScenarioSpec spec;
  if (!build_scenario(opts.choice, spec)) {
    std::fprintf(stderr, "ssps_noded: unknown scenario '%s'\n",
                 opts.choice.name.c_str());
    return kExitBadSpec;
  }
  const std::string unsupported = deploy_unsupported(spec);
  if (!unsupported.empty()) {
    std::fprintf(stderr, "ssps_noded: %s\n", unsupported.c_str());
    return kExitBadSpec;
  }
  if (opts.procs == 0 || opts.shard >= opts.procs) {
    std::fprintf(stderr, "ssps_noded: shard %zu out of range for %zu procs\n",
                 opts.shard, opts.procs);
    return kExitBadSpec;
  }
  Daemon daemon(opts, std::move(spec));
  return daemon.run();
}

}  // namespace ssps::proc
