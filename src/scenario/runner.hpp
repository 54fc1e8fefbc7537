// ScenarioRunner: executes a ScenarioSpec against the simulator.
//
// The runner owns the deployment named by the spec — either one
// pubsub::PubSubSystem (single supervised skip ring with Algorithm 5 on
// every subscriber) or a sim::Network holding a consistent-hashing
// SupervisorGroup of MultiTopicSupervisorNodes plus MultiTopicNode
// clients — and drives it phase by phase, sampling metrics around each
// phase into a ScenarioReport. All scenario-level randomness (which node
// crashes, which topic a publication hits) comes from one Rng derived from
// the spec seed, and the simulator's randomness comes from the same seed,
// so a (spec, seed) pair reproduces its report bit-for-bit.
#pragma once

#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "oracle/invariants.hpp"
#include "pubsub/topics.hpp"
#include "scenario/report.hpp"
#include "scenario/spec.hpp"
#include "sched/timed.hpp"
#include "sim/failure_detector.hpp"
#include "telemetry/round_probe.hpp"
#include "wire/corrupt.hpp"

namespace ssps::scenario {

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Executes every phase and returns the report (also kept in report()).
  const ScenarioReport& run();

  /// Executes one phase (phases must be run in order; run() is the normal
  /// entry point — this exists for examples that narrate between phases).
  const PhaseReport& run_phase(std::size_t index);

  const ScenarioSpec& spec() const { return spec_; }
  const ScenarioReport& report() const { return report_; }

  /// One full invariant-oracle sweep over the current deployment state
  /// (either mode). The runner calls this at phase end when the spec asks
  /// for it; exposed so tests and tools can interrogate any moment.
  oracle::OracleReport check_oracle();

  /// The engine's convergence predicate (the wait target of
  /// Phase::converge). Multi-topic mode answers from a per-topic verdict
  /// cache keyed on cheap version reads — supervisor db_version, member
  /// overlay state versions, publication-store sizes — re-evaluating a
  /// topic only when its epoch moved, the multi-topic analogue of the
  /// single-ring incremental probe. Exposed (with the exhaustive
  /// reference below) so the differential test can pin their agreement.
  bool converged() const;

  /// Reference implementation of converged(): the full (topic, member)
  /// walk, no caching. Tests assert converged() == converged_reference()
  /// along entire convergence trajectories.
  bool converged_reference() const;

  /// The underlying network (either mode).
  sim::Network& net();

  /// The installed timed engine (link counters, virtual clock), or null
  /// unless the spec runs on the timed scheduler.
  const sched::TimedScheduler* timed() const { return timed_; }

  // ---- single-topic-mode access (aborts in multi-topic mode) -----------
  pubsub::PubSubSystem& single();
  const pubsub::PubSubSystem& single() const;

  // ---- multi-topic-mode access (aborts in single-topic mode) -----------
  const pubsub::SupervisorGroup& group() const;
  /// Supervisors currently in the group, in join order.
  const std::vector<sim::NodeId>& supervisor_ids() const { return sup_ids_; }
  /// Alive clients, in join order.
  const std::vector<sim::NodeId>& client_ids() const { return clients_; }
  /// Current member set of one topic (join order).
  std::vector<sim::NodeId> topic_members(TopicId topic) const;

 private:
  // Phase machinery.
  void apply_fd_delay(sim::Round delay);
  void apply_supervisor_changes(const Phase& phase, PhaseReport& out);
  void apply_churn(const ChurnWave& churn, PhaseReport& out);
  void apply_flash_crowd(TopicId topic);
  void apply_chaos(const Phase& phase);
  void apply_scramble(const Phase& phase);
  void apply_publish(const PublishLoad& load);
  void run_budget(std::size_t budget);
  /// Whether the oracle runs at the end of `phase`.
  bool oracle_enabled(const Phase& phase) const;
  std::size_t wait_converged(std::size_t max_rounds, bool oracle_too,
                             bool& converged_out);
  void sample(const Phase& phase, PhaseReport& out);
  /// The multi-topic deployment as the oracle/injector see it.
  oracle::MultiTopicView multi_view();

  // Single-topic helpers.
  sim::NodeId pick_active_single();

  // Multi-topic helpers.
  sim::NodeId spawn_supervisor();
  void spawn_client();
  void subscribe_client(sim::NodeId client, TopicId topic);
  /// Moves every member of `topic` from `old_owner` to the group's current
  /// owner. Graceful rehoming runs the unsubscribe handshake with the
  /// (alive) old owner; forced rehoming (crashed owner: old_owner is null)
  /// drops the instance outright. Local publication stores survive either
  /// way.
  void rehome_topic(TopicId topic, sim::NodeId old_owner, bool graceful);
  TopicId pick_topic(const PublishLoad& load);
  std::string make_payload(std::size_t payload_bytes);

  ScenarioSpec spec_;
  ScenarioReport report_;
  ssps::Rng rng_;
  std::size_t next_phase_ = 0;
  std::size_t payload_seq_ = 0;

  /// Per-round time-series ring (spec.timeseries_capacity > 0). Attached
  /// to the network right after deployment construction; its enricher
  /// fills the nonconforming count from the mode's convergence probe.
  std::unique_ptr<telemetry::RoundProbe> probe_;

  /// Corrupting-link damage model (wire/corrupt.hpp), installed when a
  /// timed spec sets a nonzero LinkProfile::corrupt on any link class.
  /// Owned here; the timed engine holds a raw pointer for the run's
  /// lifetime.
  std::unique_ptr<wire::CodecCorrupter> corrupter_;
  /// The timed engine, owned by the network (null unless timed).
  sched::TimedScheduler* timed_ = nullptr;
  /// Single-topic crash log in crash order; ChurnWave::recoveries
  /// restarts from the front (oldest crash first).
  std::vector<sim::NodeId> crashed_single_;

  // Single-topic deployment.
  std::unique_ptr<pubsub::PubSubSystem> single_;

  // Multi-topic deployment.
  std::unique_ptr<sim::Network> multi_net_;
  std::unique_ptr<sim::FailureDetector> fd_;
  /// Slot handed (by address) to every MultiTopicSupervisorNode.
  const sim::FailureDetector* fd_slot_ = nullptr;
  std::unique_ptr<pubsub::SupervisorGroup> group_;
  std::vector<sim::NodeId> sup_ids_;
  std::vector<sim::NodeId> clients_;
  /// topic -> members in join order (the expected converged fan-out).
  /// Flat tables (common/flat_map.hpp): the convergence probe and the
  /// report sampler iterate every topic, which at the thousand-topic
  /// target must be a linear scan, not a pointer chase.
  FlatMap<TopicId, std::vector<sim::NodeId>> members_;
  /// topic -> publications issued so far (the expected trie size).
  FlatMap<TopicId, std::size_t> pubs_per_topic_;

  /// One member's contribution to a topic's convergence epoch: identity
  /// plus the version pair from MultiTopicNode::topic_epoch (nullopt —
  /// not subscribed — keys as the (~0, 0) sentinel, which a real epoch
  /// never produces: versions grow far slower than 2^64).
  struct MemberEpoch {
    sim::NodeId id;
    std::uint64_t overlay_version = 0;
    std::size_t trie_size = 0;
    bool operator==(const MemberEpoch&) const = default;
  };
  /// Cached verdict for one topic, valid while its key fields — owner,
  /// database epoch, expected publication count, member epochs — are
  /// unchanged. Negative verdicts cache too: a topic that was not
  /// converged and whose state did not move is still not converged.
  struct TopicVerdict {
    bool ok = false;
    sim::NodeId owner;
    std::uint64_t db_version = 0;
    std::size_t want_pubs = 0;
    std::vector<MemberEpoch> members;
  };
  /// The per-topic verdict cache (mutable: converged() is logically
  /// const). Stale entries for emptied topics are simply skipped.
  mutable FlatMap<TopicId, TopicVerdict> verdicts_;
  /// Scratch key rebuilt per probe call (capacity persists).
  mutable std::vector<MemberEpoch> epoch_scratch_;

  bool topic_converged(TopicId topic,
                       const std::vector<sim::NodeId>& members) const;
};

}  // namespace ssps::scenario
