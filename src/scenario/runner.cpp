#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/label.hpp"
#include "sched/async.hpp"

namespace ssps::scenario {

namespace {

/// Decorrelates the runner's decision stream from the network's scheduler
/// stream (both derive from the one spec seed).
constexpr std::uint64_t kRunnerSeedSalt = 0x5c3ec0de5c3ec0deULL;

/// The unit every duration and latency figure in the report is measured
/// in — the clock the spec's scheduler advances.
const char* clock_label(Scheduler scheduler) {
  switch (scheduler) {
    case Scheduler::kRounds:
      return "rounds";
    case Scheduler::kAsync:
      return "steps";
    case Scheduler::kTimed:
      return "virtual-seconds";
  }
  return "rounds";
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed ^ kRunnerSeedSalt) {
  // run_phase() hands out references into this vector which callers hold
  // across subsequent run_phase() calls (see examples/); never reallocate.
  report_.phases.reserve(spec_.phases.size());
  report_.scenario = spec_.name;
  report_.seed = spec_.seed;
  report_.nodes = spec_.nodes;
  report_.mode = spec_.mode;
  report_.supervisors = spec_.supervisors;
  report_.topics = spec_.topics;
  // The round-scheduler worker count the run actually uses: async and
  // timed specs never install the pool (see the guard below), so they
  // report 1.
  report_.threads =
      spec_.exec.scheduler == Scheduler::kRounds ? spec_.exec.threads : 1;
  report_.clock = clock_label(spec_.exec.scheduler);
  report_.latency.unit = report_.clock;

  if (spec_.mode == Mode::kSingleTopic) {
    single_ = std::make_unique<pubsub::PubSubSystem>(
        core::SkipRingSystem::Options{.seed = spec_.seed,
                                      .fd_delay = spec_.fd_delay},
        spec_.pubsub);
  } else {
    SSPS_ASSERT_MSG(spec_.supervisors >= 1, "multi-topic scenario needs a supervisor");
    SSPS_ASSERT_MSG(spec_.topics >= 1, "multi-topic scenario needs topics");
    multi_net_ = std::make_unique<sim::Network>(spec_.seed);
    fd_ = std::make_unique<sim::FailureDetector>(*multi_net_, spec_.fd_delay);
    fd_slot_ = fd_.get();
    std::vector<sim::NodeId> initial;
    for (std::size_t i = 0; i < spec_.supervisors; ++i) initial.push_back(spawn_supervisor());
    group_ = std::make_unique<pubsub::SupervisorGroup>(initial, spec_.virtual_nodes);
  }
  if (spec_.exec.scheduler == Scheduler::kTimed) {
    // Corrupting links need the damage model: encode, mangle, re-decode
    // through the real wire codec. Installed only when some link class can
    // actually corrupt, so corruption-free timed specs keep reproducing
    // their previous reports byte-for-byte.
    if (spec_.exec.timed.local.corrupt > 0.0 ||
        spec_.exec.timed.remote.corrupt > 0.0) {
      corrupter_ = std::make_unique<wire::CodecCorrupter>();
    }
    // Installs the event-driven scheduler and the link model. The network
    // is still quiescent here (subscribers join in phase 0), which the
    // engine requires.
    auto timed = std::make_unique<sched::TimedScheduler>(net(), spec_.exec.timed,
                                                         corrupter_.get());
    timed_ = timed.get();
    net().set_scheduler(std::move(timed));
  } else if (spec_.exec.scheduler == Scheduler::kAsync) {
    // The async stepper sits behind the same seam as the other flavors:
    // one unit = one randomized step, probe sampling on the step stride,
    // latency and telemetry on the step clock.
    net().set_scheduler(std::make_unique<sched::AsyncScheduler>());
  }
  // Crash-recovery needs periodic state snapshots to restart from; any
  // scheduler flavor can take them (the capture is a pure state read).
  if (spec_.snapshot_every > 0) net().enable_snapshots(spec_.snapshot_every);
  // Async/timed schedulers are single-threaded by contract, so a worker
  // pool would be dead weight — threads only applies to the round
  // scheduler (a spec-authored mismatch is tolerated and ignored; the
  // tools reject user-requested ones via ExecutionSpec::validate).
  if (spec_.exec.threads > 1 && spec_.exec.scheduler == Scheduler::kRounds) {
    net().set_threads(spec_.exec.threads);
  }

  // Per-phase telemetry ring: every scheduler samples through its own
  // Scheduler::sample hook — round/timed runs once per round after the
  // barrier, async runs every AsyncConfig::probe_stride steps on the step
  // clock. The enricher supplies the one field the Network cannot compute
  // itself.
  if (spec_.timeseries_capacity > 0) {
    probe_ = std::make_unique<telemetry::RoundProbe>(spec_.timeseries_capacity);
    probe_->set_enricher([this](telemetry::RoundSample& s) {
      if (spec_.mode == Mode::kSingleTopic) {
        s.nonconforming = single_->nonconforming_count();
      } else {
        // Multi-topic: nonconforming counts topics (not nodes) that fail
        // the engine's convergence probe; the verdict cache makes the
        // per-round sweep cheap between epoch changes.
        std::uint64_t bad = 0;
        for (const auto& [topic, members] : members_) {
          if (!members.empty() && !topic_converged(topic, members)) ++bad;
        }
        s.nonconforming = bad;
      }
    });
    net().attach_round_probe(probe_.get());
  }
}

sim::Network& ScenarioRunner::net() {
  return spec_.mode == Mode::kSingleTopic ? single_->net() : *multi_net_;
}

pubsub::PubSubSystem& ScenarioRunner::single() {
  SSPS_ASSERT_MSG(single_ != nullptr, "single(): scenario is multi-topic");
  return *single_;
}

const pubsub::PubSubSystem& ScenarioRunner::single() const {
  SSPS_ASSERT_MSG(single_ != nullptr, "single(): scenario is multi-topic");
  return *single_;
}

const pubsub::SupervisorGroup& ScenarioRunner::group() const {
  SSPS_ASSERT_MSG(group_ != nullptr, "group(): scenario is single-topic");
  return *group_;
}

std::vector<sim::NodeId> ScenarioRunner::topic_members(TopicId topic) const {
  auto it = members_.find(topic);
  return it == members_.end() ? std::vector<sim::NodeId>{} : it->second;
}

const ScenarioReport& ScenarioRunner::run() {
  while (next_phase_ < spec_.phases.size()) run_phase(next_phase_);
  report_.ok = true;
  report_.oracle_ok = true;
  report_.total_rounds = 0;
  report_.total_messages = 0;
  report_.total_bytes = 0;
  for (std::size_t i = 0; i < report_.phases.size(); ++i) {
    const PhaseReport& p = report_.phases[i];
    if (spec_.phases[i].converge && !p.converged) report_.ok = false;
    // An oracle-checked convergence wait must end in a legal state: when
    // the oracle is enabled the wait predicate itself requires legality,
    // so nonzero violations here mean the wait timed out with the system
    // still illegal — the sweep's details name the failing invariants.
    // Violations in phases that deliberately left the system mid-churn
    // (no convergence wait) stay informational.
    if (p.oracle && spec_.phases[i].converge && p.oracle->violations > 0) {
      report_.oracle_ok = false;
    }
    report_.total_rounds += p.rounds;
    report_.total_messages += p.messages;
    report_.total_bytes += p.bytes;
  }

  // Whole-run delivery-latency distribution (never reset per phase: the
  // interesting percentiles span publish-to-recovery arcs that cross phase
  // boundaries). latency() folds outstanding worker shards first.
  const telemetry::LatencyTracker& lat = net().latency();
  report_.latency.global = lat.global().summary();
  report_.latency.per_topic.clear();
  for (const auto& [topic, hist] : lat.by_topic()) {
    report_.latency.per_topic[topic] = hist.summary();
  }

  if (probe_) {
    TimeSeriesReport ts;
    ts.unit = report_.clock;
    ts.dropped = probe_->dropped();
    ts.samples.reserve(probe_->size());
    for (std::size_t i = 0; i < probe_->size(); ++i) {
      ts.samples.push_back(probe_->at(i));
    }
    report_.timeseries = std::move(ts);
  }
  return report_;
}

const PhaseReport& ScenarioRunner::run_phase(std::size_t index) {
  SSPS_ASSERT_MSG(index == next_phase_ && index < spec_.phases.size(),
                  "run_phase: phases must execute in declaration order");
  const Phase& phase = spec_.phases[index];
  next_phase_ += 1;

  PhaseReport out;
  out.name = phase.name;

  sim::Network& network = net();
  network.metrics().reset();
  const std::uint64_t unit_start = network.unit_now();
  // The corruption count is cumulative over the run; the phase reports a
  // delta.
  const std::uint64_t corrupted_start = timed_ != nullptr ? timed_->corrupted() : 0;

  if (!phase.partitions.empty()) {
    SSPS_ASSERT_MSG(timed_ != nullptr, "phase partitions require the timed scheduler");
    // Spec windows are relative to the phase start; shift them onto the
    // absolute virtual clock.
    const std::uint64_t now_s = timed_->now_ticks() / sim::kTicksPerInterval;
    for (sim::PartitionWindow w : phase.partitions) {
      w.from_s += now_s;
      w.to_s += now_s;
      timed_->add_partition(w);
    }
  }
  if (phase.set_fd_delay) apply_fd_delay(*phase.set_fd_delay);
  if (spec_.mode == Mode::kMultiTopic) apply_supervisor_changes(phase, out);
  apply_churn(phase.churn, out);
  if (phase.flash_crowd_topic) apply_flash_crowd(*phase.flash_crowd_topic);
  apply_chaos(phase);
  apply_scramble(phase);
  apply_publish(phase.publish);

  run_budget(phase.run);
  if (phase.converge) {
    out.convergence_rounds =
        wait_converged(phase.max_rounds, oracle_enabled(phase), out.converged);
  }

  out.rounds = static_cast<std::size_t>(network.unit_now() - unit_start);
  if (timed_ != nullptr) out.corrupted = timed_->corrupted() - corrupted_start;
  sample(phase, out);
  if (oracle_enabled(phase)) {
    constexpr std::size_t kMaxDetails = 8;
    const oracle::OracleReport sweep = check_oracle();
    OracleSummary summary;
    summary.violations = sweep.violations.size();
    summary.checked_nodes = sweep.checked_nodes;
    summary.checked_topics = sweep.checked_topics;
    summary.by_invariant = sweep.count_by_invariant();
    for (std::size_t i = 0; i < std::min(kMaxDetails, sweep.violations.size()); ++i) {
      summary.details.push_back(sweep.violations[i].to_string());
    }
    out.oracle = std::move(summary);
  }
  report_.phases.push_back(std::move(out));
  return report_.phases.back();
}

bool ScenarioRunner::oracle_enabled(const Phase& phase) const {
  return spec_.oracle || phase.check_invariants;
}

oracle::MultiTopicView ScenarioRunner::multi_view() {
  SSPS_ASSERT_MSG(spec_.mode == Mode::kMultiTopic,
                  "multi_view: scenario is single-topic");
  oracle::MultiTopicView view;
  view.net = multi_net_.get();
  view.group = group_.get();
  view.supervisors = sup_ids_;
  view.members = members_;
  return view;
}

oracle::OracleReport ScenarioRunner::check_oracle() {
  if (spec_.mode == Mode::kSingleTopic) return oracle::check_system(*single_);
  return oracle::check_deployment(multi_view());
}

void ScenarioRunner::apply_fd_delay(sim::Round delay) {
  if (spec_.mode == Mode::kSingleTopic) {
    single_->failure_detector().set_delay(delay);
  } else {
    fd_->set_delay(delay);
  }
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

sim::NodeId ScenarioRunner::pick_active_single() {
  const auto active = single_->active_ids();
  SSPS_ASSERT_MSG(!active.empty(), "churn: no active subscriber left to pick");
  return active[rng_.pick_index(active)];
}

void ScenarioRunner::apply_churn(const ChurnWave& churn, PhaseReport& out) {
  if (spec_.mode == Mode::kSingleTopic) {
    // Recoveries first (oldest crash first), so a phase never revives a
    // node its own crash wave just killed. A node whose snapshot restores
    // cleanly resumes from that (stale) state; any other node — empty,
    // truncated or corrupted snapshot — restarts from scratch. Both
    // re-stabilize through the ordinary join/repair path.
    for (std::size_t i = 0; i < churn.recoveries && !crashed_single_.empty(); ++i) {
      const sim::NodeId revived = crashed_single_.front();
      crashed_single_.erase(crashed_single_.begin());
      out.recovered += 1;
      if (single_->recover_pubsub_subscriber(revived)) out.recovered_clean += 1;
    }
    std::size_t crashes = churn.crashes;
    if (churn.crash_min_label && crashes > 0) {
      // The label-"0" holder is the hub of every shortcut table — the
      // worst-case crash the drill scenarios aim at.
      for (sim::NodeId id : single_->active_ids()) {
        const auto& label = single_->subscriber(id).label();
        if (label && *label == core::Label::from_index(0)) {
          single_->crash(id);
          crashed_single_.push_back(id);
          crashes -= 1;
          break;
        }
      }
    }
    for (std::size_t i = 0; i < crashes; ++i) {
      const sim::NodeId victim = pick_active_single();
      single_->crash(victim);
      crashed_single_.push_back(victim);
    }
    for (std::size_t i = 0; i < churn.leaves; ++i) {
      single_->request_unsubscribe(pick_active_single());
    }
    for (std::size_t i = 0; i < churn.joins; ++i) single_->add_pubsub_subscriber();
    return;
  }

  // Multi-topic: a crash removes one client everywhere; a leave is one
  // graceful (client, topic) unsubscribe; a join spawns a client that
  // subscribes to `topics_per_client` random topics.
  for (std::size_t i = 0; i < churn.crashes && !clients_.empty(); ++i) {
    const std::size_t at = rng_.pick_index(clients_);
    const sim::NodeId victim = clients_[at];
    multi_net_->crash(victim);
    clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(at));
    for (auto& [topic, members] : members_) {
      std::erase(members, victim);
      if (members.empty()) pubs_per_topic_[topic] = 0;  // history died with them
    }
  }
  for (std::size_t i = 0; i < churn.leaves; ++i) {
    std::vector<TopicId> candidates;
    for (const auto& [topic, members] : members_) {
      if (!members.empty()) candidates.push_back(topic);
    }
    if (candidates.empty()) break;
    const TopicId topic = candidates[rng_.pick_index(candidates)];
    auto& members = members_[topic];
    const std::size_t at = rng_.pick_index(members);
    const sim::NodeId leaver = members[at];
    multi_net_->node_as<pubsub::MultiTopicNode>(leaver).unsubscribe(topic);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
    if (members.empty()) pubs_per_topic_[topic] = 0;
  }
  for (std::size_t i = 0; i < churn.joins; ++i) spawn_client();
}

void ScenarioRunner::spawn_client() {
  const sim::NodeId id = multi_net_->spawn<pubsub::MultiTopicNode>(
      [this](TopicId t) { return group_->supervisor_for(t); }, spec_.pubsub);
  clients_.push_back(id);
  // Subscribe to `topics_per_client` distinct topics, chosen uniformly.
  const std::size_t want = std::min(spec_.topics_per_client, spec_.topics);
  std::vector<TopicId> universe;
  universe.reserve(spec_.topics);
  for (std::size_t t = 1; t <= spec_.topics; ++t) {
    universe.push_back(static_cast<TopicId>(t));
  }
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t at = rng_.between(i, universe.size() - 1);
    std::swap(universe[i], universe[at]);
    subscribe_client(id, universe[i]);
  }
}

void ScenarioRunner::subscribe_client(sim::NodeId client, TopicId topic) {
  auto& members = members_[topic];
  if (std::find(members.begin(), members.end(), client) != members.end()) return;
  multi_net_->node_as<pubsub::MultiTopicNode>(client).subscribe(topic);
  members.push_back(client);
}

void ScenarioRunner::apply_flash_crowd(TopicId topic) {
  SSPS_ASSERT_MSG(spec_.mode == Mode::kMultiTopic,
                  "flash_crowd_topic requires a multi-topic scenario");
  for (sim::NodeId client : clients_) subscribe_client(client, topic);
}

// ---------------------------------------------------------------------------
// Adversarial state
// ---------------------------------------------------------------------------

void ScenarioRunner::apply_chaos(const Phase& phase) {
  if (!phase.chaos && !phase.split_brain) return;
  SSPS_ASSERT_MSG(spec_.mode == Mode::kSingleTopic,
                  "chaos/split_brain require a single-topic scenario");
  if (phase.chaos) core::corrupt_system(*single_, *phase.chaos);
  if (phase.split_brain) core::split_brain(*single_, rng_.next());
}

void ScenarioRunner::apply_scramble(const Phase& phase) {
  if (!phase.scramble) return;
  oracle::ArbitraryStateInjector injector(*phase.scramble);
  if (spec_.mode == Mode::kSingleTopic) {
    injector.scramble(*single_);
  } else {
    injector.scramble(multi_view());
  }
}

// ---------------------------------------------------------------------------
// Publishing
// ---------------------------------------------------------------------------

std::string ScenarioRunner::make_payload(std::size_t payload_bytes) {
  std::string payload = "p" + std::to_string(payload_seq_++);
  if (payload.size() < payload_bytes) payload.resize(payload_bytes, 'x');
  return payload;
}

TopicId ScenarioRunner::pick_topic(const PublishLoad& load) {
  if (load.topic) return *load.topic;
  std::vector<TopicId> candidates;
  for (const auto& [topic, members] : members_) {
    if (!members.empty()) candidates.push_back(topic);
  }
  SSPS_ASSERT_MSG(!candidates.empty(), "publish: no topic has any subscriber");
  if (load.zipf_s <= 0.0) return candidates[rng_.pick_index(candidates)];
  // Zipf over the candidate ranks: rank r (0-based) has weight (r+1)^-s.
  double total = 0.0;
  std::vector<double> cumulative(candidates.size());
  for (std::size_t r = 0; r < candidates.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -load.zipf_s);
    cumulative[r] = total;
  }
  const double u = rng_.uniform01() * total;
  const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
  const std::size_t r = std::min(
      static_cast<std::size_t>(it - cumulative.begin()), candidates.size() - 1);
  return candidates[r];
}

void ScenarioRunner::apply_publish(const PublishLoad& load) {
  for (std::size_t i = 0; i < load.count; ++i) {
    if (spec_.mode == Mode::kSingleTopic) {
      single_->pubsub(pick_active_single()).publish(make_payload(load.payload_bytes));
    } else {
      const TopicId topic = pick_topic(load);
      auto& members = members_[topic];
      if (members.empty()) continue;  // pinned topic may be empty
      const sim::NodeId publisher = members[rng_.pick_index(members)];
      multi_net_->node_as<pubsub::MultiTopicNode>(publisher).publish(
          topic, make_payload(load.payload_bytes));
      pubs_per_topic_[topic] += 1;
    }
    if (load.gap > 0 && i + 1 < load.count) run_budget(load.gap);
  }
}

// ---------------------------------------------------------------------------
// Supervisor-group membership (multi-topic mode)
// ---------------------------------------------------------------------------

sim::NodeId ScenarioRunner::spawn_supervisor() {
  const sim::NodeId id = multi_net_->spawn<pubsub::MultiTopicSupervisorNode>(&fd_slot_);
  sup_ids_.push_back(id);
  return id;
}

void ScenarioRunner::rehome_topic(TopicId topic, sim::NodeId old_owner,
                                  bool graceful) {
  auto it = members_.find(topic);
  if (it == members_.end() || it->second.empty()) return;
  const std::vector<sim::NodeId> members = it->second;

  // Every member's local store survives the handoff: clients re-add their
  // publications into the fresh per-topic instance at the new owner, and
  // anti-entropy re-spreads anything a member was missing.
  std::map<sim::NodeId, std::vector<pubsub::Publication>> saved;
  for (sim::NodeId m : members) {
    auto& node = multi_net_->node_as<pubsub::MultiTopicNode>(m);
    if (!node.subscribed(topic)) continue;
    saved[m] = node.pubsub(topic).trie().all();
    if (graceful) {
      node.unsubscribe(topic);
    } else {
      node.drop_topic(topic);
    }
  }
  if (graceful) {
    // Let the departure handshake with the (still alive) old owner finish.
    const auto done = multi_net_->run_until(
        [&] {
          for (sim::NodeId m : members) {
            if (multi_net_->node_as<pubsub::MultiTopicNode>(m).subscribed(topic)) {
              return false;
            }
          }
          return true;
        },
        1000);
    if (!done) {
      // Handshake timed out (e.g. an extreme fd_delay): fall back to a
      // forced drop so the member still moves — subscribe() below would
      // otherwise no-op on the lingering instance. Send an Unsubscribe
      // tombstone to the old owner for each dropped member so its (still
      // alive) database does not keep managing clients the new owner now
      // serves. send(), not inject(): this is engine-orchestrated protocol
      // traffic, and the inject counters are reserved for adversarial
      // content.
      for (sim::NodeId m : members) {
        auto& node = multi_net_->node_as<pubsub::MultiTopicNode>(m);
        if (!node.subscribed(topic)) continue;
        node.drop_topic(topic);
        if (old_owner) {
          multi_net_->send(
              old_owner,
              multi_net_->pool().make<pubsub::TopicEnvelope>(
                  topic, multi_net_->pool().make<core::msg::Unsubscribe>(m)));
        }
      }
    }
  }
  for (sim::NodeId m : members) {
    auto& node = multi_net_->node_as<pubsub::MultiTopicNode>(m);
    node.subscribe(topic);
    for (const pubsub::Publication& p : saved[m]) node.pubsub(topic).add_local(p);
  }
}

void ScenarioRunner::apply_supervisor_changes(const Phase& phase, PhaseReport& out) {
  auto owners_before = [&] {
    std::map<TopicId, sim::NodeId> owners;
    for (const auto& [topic, members] : members_) {
      if (!members.empty()) owners[topic] = group_->supervisor_for(topic);
    }
    return owners;
  };
  auto rebalance = [&](const std::map<TopicId, sim::NodeId>& before, bool graceful) {
    for (const auto& [topic, old_owner] : before) {
      if (group_->supervisor_for(topic) != old_owner) {
        rehome_topic(topic, graceful ? old_owner : sim::NodeId::null(), graceful);
        out.moved_topics += 1;
      }
    }
  };

  for (std::size_t i = 0; i < phase.add_supervisors; ++i) {
    const auto before = owners_before();
    group_->add_supervisor(spawn_supervisor());
    rebalance(before, /*graceful=*/true);
  }
  for (std::size_t i = 0; i < phase.remove_supervisors && sup_ids_.size() > 1; ++i) {
    const auto before = owners_before();
    const std::size_t at = rng_.pick_index(sup_ids_);
    group_->remove_supervisor(sup_ids_[at]);
    // The drained supervisor stays alive, so rehoming can use the
    // unsubscribe handshake; its per-topic databases empty out.
    sup_ids_.erase(sup_ids_.begin() + static_cast<std::ptrdiff_t>(at));
    rebalance(before, /*graceful=*/true);
  }
  for (std::size_t i = 0; i < phase.crash_supervisors && sup_ids_.size() > 1; ++i) {
    const auto before = owners_before();
    const std::size_t at = rng_.pick_index(sup_ids_);
    const sim::NodeId victim = sup_ids_[at];
    group_->remove_supervisor(victim);
    multi_net_->crash(victim);
    sup_ids_.erase(sup_ids_.begin() + static_cast<std::ptrdiff_t>(at));
    rebalance(before, /*graceful=*/false);
  }
}

// ---------------------------------------------------------------------------
// Scheduling and convergence
// ---------------------------------------------------------------------------

void ScenarioRunner::run_budget(std::size_t budget) {
  if (budget == 0) return;
  // One call for every flavor: the installed scheduler defines the unit
  // (round, timed interval, or async step).
  net().run_units(budget);
}

bool ScenarioRunner::converged() const {
  if (spec_.mode == Mode::kSingleTopic) {
    return single_->topology_legit() && single_->publications_converged();
  }
  for (const auto& [topic, members] : members_) {
    if (members.empty()) continue;
    if (!topic_converged(topic, members)) return false;
  }
  return true;
}

bool ScenarioRunner::topic_converged(
    TopicId topic, const std::vector<sim::NodeId>& members) const {
  auto* self = const_cast<ScenarioRunner*>(this);
  const sim::NodeId owner = group_->supervisor_for(topic);
  auto& sup = self->multi_net_->node_as<pubsub::MultiTopicSupervisorNode>(owner);
  const core::SupervisorProtocol* proto = sup.find_topic(topic);
  if (proto == nullptr) return false;  // no instance yet: nothing to cache
  const std::size_t want_pubs = [&] {
    auto it = pubs_per_topic_.find(topic);
    return it == pubs_per_topic_.end() ? std::size_t{0} : it->second;
  }();

  // Build the topic's epoch key from cheap version reads: two integers
  // per member, one per database. Every fact the full check below
  // evaluates is a function of this key — proto->size(),
  // database_consistent() and label_of() of the database (db_version),
  // overlay.label() of the member's overlay state (state_version), the
  // trie size (keyed directly) — so an unchanged key means an unchanged
  // verdict, positive or negative.
  epoch_scratch_.clear();
  for (sim::NodeId m : members) {
    auto& node = self->multi_net_->node_as<pubsub::MultiTopicNode>(m);
    const auto epoch = node.topic_epoch(topic);
    epoch_scratch_.push_back(epoch ? MemberEpoch{m, epoch->first, epoch->second}
                                   : MemberEpoch{m, ~std::uint64_t{0}, 0});
  }
  TopicVerdict& verdict = verdicts_[topic];
  if (verdict.owner == owner && verdict.db_version == proto->db_version() &&
      verdict.want_pubs == want_pubs && verdict.members == epoch_scratch_) {
    return verdict.ok;
  }

  // Epoch moved (or first sight): re-evaluate in full and re-key.
  verdict.owner = owner;
  verdict.db_version = proto->db_version();
  verdict.want_pubs = want_pubs;
  verdict.members = epoch_scratch_;
  verdict.ok = [&] {
    if (proto->size() != members.size() || !proto->database_consistent()) {
      return false;
    }
    for (sim::NodeId m : members) {
      auto& node = self->multi_net_->node_as<pubsub::MultiTopicNode>(m);
      if (!node.subscribed(topic)) return false;
      const auto& overlay = node.overlay(topic);
      if (!overlay.label() || proto->label_of(m) != overlay.label()) return false;
      if (node.pubsub(topic).trie().size() != want_pubs) return false;
    }
    return true;
  }();
  return verdict.ok;
}

bool ScenarioRunner::converged_reference() const {
  if (spec_.mode == Mode::kSingleTopic) {
    return single_->topology_legit() && single_->publications_converged();
  }
  auto* self = const_cast<ScenarioRunner*>(this);
  for (const auto& [topic, members] : members_) {
    if (members.empty()) continue;
    const sim::NodeId owner = group_->supervisor_for(topic);
    auto& sup = self->multi_net_->node_as<pubsub::MultiTopicSupervisorNode>(owner);
    const core::SupervisorProtocol* proto = sup.find_topic(topic);
    if (proto == nullptr) return false;
    if (proto->size() != members.size() || !proto->database_consistent()) return false;
    const std::size_t want_pubs = [&] {
      auto it = pubs_per_topic_.find(topic);
      return it == pubs_per_topic_.end() ? std::size_t{0} : it->second;
    }();
    for (sim::NodeId m : members) {
      auto& node = self->multi_net_->node_as<pubsub::MultiTopicNode>(m);
      if (!node.subscribed(topic)) return false;
      const auto& overlay = node.overlay(topic);
      if (!overlay.label() || proto->label_of(m) != overlay.label()) return false;
      if (node.pubsub(topic).trie().size() != want_pubs) return false;
    }
  }
  return true;
}

std::size_t ScenarioRunner::wait_converged(std::size_t max_rounds, bool oracle_too,
                                           bool& converged_out) {
  // With the oracle enabled the target state is the *full* legal-state
  // predicate, which is strictly stronger than the engine's convergence
  // probes (e.g. the multi-topic probe never looks at shortcut tables).
  // The cheap probe runs first so the oracle sweep only prices rounds that
  // already look converged.
  auto settled = [this, oracle_too] {
    return converged() && (!oracle_too || check_oracle().ok());
  };
  // One wait for every flavor: run_until probes once per unit under the
  // round/timed schedulers and once per settle_stride (~one action per
  // alive node) under the async stepper. The returned duration is in the
  // scheduler's own units — step-grained schedulers report elapsed steps
  // (stride x iterations), matching PhaseReport::rounds' units.
  const std::uint64_t start = net().unit_now();
  const auto used = net().run_until(settled, max_rounds);
  converged_out = used.has_value();
  return used.value_or(
      static_cast<std::size_t>(net().unit_now() - start));
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

void ScenarioRunner::sample(const Phase& phase, PhaseReport& out) {
  (void)phase;
  const sim::Metrics metrics = net().metrics().snapshot();
  out.messages = metrics.total_sent();
  out.delivered = metrics.total_delivered();
  out.bytes = metrics.total_bytes();
  out.injected = metrics.total_injected();
  out.injected_bytes = metrics.injected_bytes();
  out.rejected = metrics.total_rejected();
  out.rejected_bytes = metrics.rejected_bytes();
  for (const auto& [label, counter] : metrics.by_label()) {
    out.by_label[label] = {counter.count, counter.bytes};
  }

  if (spec_.mode == Mode::kSingleTopic) {
    out.alive_nodes = single_->subscriber_ids().size();
    out.publications = single_->distinct_publications();
    SupervisorLoad load;
    load.node = single_->supervisor_id();
    load.received = metrics.received_by(load.node);
    load.topics = 1;
    load.database = single_->supervisor().size();
    load.arc_share = 1.0;
    out.supervisor_load.push_back(load);
    return;
  }

  out.alive_nodes = clients_.size();
  for (const auto& [topic, count] : pubs_per_topic_) out.publications += count;
  for (sim::NodeId id : sup_ids_) {
    auto& sup = multi_net_->node_as<pubsub::MultiTopicSupervisorNode>(id);
    SupervisorLoad load;
    load.node = id;
    load.received = metrics.received_by(id);
    load.topics = sup.topic_count();
    for (const auto& [topic, members] : members_) {
      const auto* proto = sup.find_topic(topic);
      if (proto != nullptr && group_->supervisor_for(topic) == id) {
        load.database += proto->size();
      }
    }
    load.arc_share = group_->arc_share(id);
    out.supervisor_load.push_back(load);
  }
  for (const auto& [topic, members] : members_) {
    if (!members.empty()) out.topic_fanout[topic] = members.size();
  }
}

}  // namespace ssps::scenario
