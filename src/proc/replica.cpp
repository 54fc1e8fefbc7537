#include "proc/replica.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/encode.hpp"
#include "scenario/builtin.hpp"
#include "sched/serial.hpp"
#include "sim/network.hpp"
#include "wire/codec.hpp"

namespace ssps::proc {
namespace {

/// The deployment's scheduler: SerialScheduler's round, then the barrier.
/// Every other virtual keeps the base default, which is what
/// SerialScheduler uses too, so the execution and the report are the
/// serial round's.
class LockstepScheduler final : public sched::Scheduler {
 public:
  explicit LockstepScheduler(Replica::Barrier barrier) : barrier_(std::move(barrier)) {}

  std::size_t advance(sim::Network& net) override {
    const std::size_t delivered = round_.advance(net);
    barrier_(++units_);
    return delivered;
  }
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "lockstep"; }

 private:
  sched::SerialScheduler round_;
  Replica::Barrier barrier_;
  std::size_t units_ = 0;
};

/// The in-flight envelope `relay` names — the one at its lane index, with
/// matching from and to — or nullptr. The lockstep round is serial, so at
/// the barrier every replica's lane holds exactly this round's sends, in
/// send order (see sim::EngineSeam::lane). The index arrives from another
/// process: it is bounds-checked before the lane is read.
sim::Envelope* find_relayed(sim::Network& net, const Relay& relay) {
  std::vector<sim::Envelope>& lane = sim::EngineSeam(net).lane();
  if (relay.index >= lane.size()) return nullptr;
  sim::Envelope& env = lane[static_cast<std::size_t>(relay.index)];
  if (env.from.value != relay.from || env.to.value != relay.to) return nullptr;
  return &env;
}

}  // namespace

bool build_scenario(const ScenarioChoice& choice, scenario::ScenarioSpec& out) {
  if (!scenario::is_builtin(choice.name)) return false;
  scenario::ScenarioSpec spec = scenario::builtin_scenario(
      choice.name, choice.seed, static_cast<std::size_t>(choice.nodes));
  if (choice.scramble) spec = scenario::scrambled_variant(std::move(spec));
  if (choice.scramble || choice.oracle) spec.oracle = true;
  // Snapshot cadence is report-neutral (snapshot capture is a pure state
  // read), so a deploy-side override still byte-matches an ssps_run of
  // the unmodified builtin.
  if (choice.snapshot_every > 0) spec.snapshot_every = choice.snapshot_every;
  out = std::move(spec);
  return true;
}

std::string deploy_unsupported(const scenario::ScenarioSpec& spec) {
  if (spec.exec.scheduler != scenario::Scheduler::kRounds) {
    return "deployment runs round-scheduled scenarios only (the timed "
           "scheduler has no per-round barrier point)";
  }
  if (spec.exec.threads > 1) {
    return "deployment replicas run the serial lockstep round (one "
           "round worker per process)";
  }
  return "";
}

Replica::Replica(scenario::ScenarioSpec spec, std::size_t procs)
    : procs_(procs), runner_(std::move(spec)) {}

void Replica::install_lockstep(Barrier barrier) {
  net().set_scheduler(std::make_unique<LockstepScheduler>(std::move(barrier)));
}

std::uint64_t Replica::digest() {
  common::Encoder enc;
  sim::Network& n = net();
  enc.u64(n.round());
  enc.u64(n.metrics().total_sent());
  enc.u64(n.metrics().total_delivered());
  enc.u64(n.metrics().total_bytes());
  enc.u64(n.pending_messages());
  return wire::crc32(enc.buffer());
}

std::uint64_t Replica::write_outbox(std::size_t shard, const RelaySink& sink) {
  std::uint64_t written = 0;
  const std::vector<sim::Envelope>& lane = sim::EngineSeam(net()).lane();
  for (std::size_t i = 0; i < lane.size(); ++i) {
    const sim::Envelope& env = lane[i];
    if (env.from.is_null()) continue;
    if (shard_of(env.from, procs_) != shard) continue;
    if (shard_of(env.to, procs_) == shard) continue;  // process-local
    const auto inner = [&](std::vector<std::uint8_t>& out) {
      return wire::encode_message(*env.msg, out);
    };
    if (append_relay(env.from.value, env.to.value, i, inner, sink())) written += 1;
  }
  return written;
}

const char* Replica::relay_check_name(RelayCheck c) {
  switch (c) {
    case RelayCheck::kOk: return "ok";
    case RelayCheck::kUnknown: return "unknown-envelope";
    case RelayCheck::kMismatch: return "byte-mismatch";
    case RelayCheck::kUndecodable: return "undecodable";
  }
  return "invalid";
}

Replica::RelayCheck Replica::apply_relay(const Relay& relay) {
  sim::Envelope* env = find_relayed(net(), relay);
  if (env == nullptr) return RelayCheck::kUnknown;
  scratch_.clear();
  if (!wire::encode_message(*env->msg, scratch_) ||
      !std::ranges::equal(scratch_, relay.frame)) {
    return RelayCheck::kMismatch;
  }
  wire::DecodeResult decoded = wire::decode_message(relay.frame, relay_pool_);
  if (!decoded.ok()) return RelayCheck::kUndecodable;
  // The wire deliberately omits telemetry stamps (Publication::born), so
  // the decoded copy adopts them from the verified-identical local
  // envelope — otherwise the swap would skew delivery-latency histograms.
  // The envelope keeps its routing fields (to, from) and its lane place.
  decoded.msg->adopt_offwire(*env->msg);
  sim::EngineSeam(net()).reclaim(*env);
  env->pool = decoded.msg.pool();
  env->msg = decoded.msg.release();
  return RelayCheck::kOk;
}

void Replica::apply_restore(std::size_t shard) {
  pubsub::PubSubSystem& sys = runner_.single();
  // subscriber_ids() is a fresh id-ordered vector of alive subscribers;
  // every replica computes the same list from the same state, so the
  // crash+recover sequence (and its rng draws) is lockstep by
  // construction.
  for (const sim::NodeId id : sys.subscriber_ids()) {
    if (shard_of(id, procs_) != shard) continue;
    sys.crash(id);
    sys.recover_pubsub_subscriber(id);
  }
}

}  // namespace ssps::proc
