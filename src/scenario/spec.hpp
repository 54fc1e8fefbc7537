// Declarative scenario descriptions: what a workload does, not how.
//
// A ScenarioSpec names a deployment shape (one supervised skip ring, or a
// consistent-hashing supervisor group serving many topics) plus an ordered
// list of phases. Each phase bundles the actions of one experiment stage —
// churn waves, flash-crowd subscribes, Zipf-skewed publishing, adversarial
// state corruption (core/chaos), failure-detector retuning, supervisor
// group membership changes — followed by a scheduler budget and an
// optional convergence wait. The ScenarioRunner (runner.hpp) executes the
// spec against sim::Network and samples per-phase metrics; the same spec +
// seed reproduces the same report bit-for-bit.
//
// This is the reproduction's analogue of how related systems are judged:
// PSVR by stabilization time under scripted churn, VCube-PS by
// throughput/latency under skewed per-topic publication workloads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/supervisor_group.hpp"
#include "scenario/execution.hpp"
#include "sim/types.hpp"

namespace ssps::scenario {

using pubsub::TopicId;

/// Deployment shape a scenario drives.
enum class Mode {
  /// One SkipRingSystem (single supervisor, single topic) with the
  /// Algorithm 5 publication layer on every subscriber.
  kSingleTopic,
  /// A sim::Network holding MultiTopicSupervisorNodes sharded by a
  /// consistent-hashing SupervisorGroup, plus MultiTopicNode clients.
  kMultiTopic,
};

/// One wave of membership churn.
struct ChurnWave {
  std::size_t joins = 0;    ///< fresh subscribers spawned (and subscribed)
  std::size_t leaves = 0;   ///< graceful unsubscribes of random members
  std::size_t crashes = 0;  ///< fail-stop crashes of random members
  /// Single-topic only: restart this many previously crashed subscribers
  /// (oldest crash first) from their last periodic snapshot
  /// (ScenarioSpec::snapshot_every; sim::Network::recover). A node whose
  /// snapshot is stale, corrupted or missing restarts from scratch; either
  /// way it re-stabilizes into the ring. Applied before this wave's own
  /// crashes, so a phase cannot recover a node it just killed.
  std::size_t recoveries = 0;
  /// Single-topic only: make one of the crashes hit the label-"0" holder
  /// (the best-connected node) if it exists — the worst-case crash.
  bool crash_min_label = false;
};

/// A publication workload.
struct PublishLoad {
  std::size_t count = 0;          ///< publications issued this phase
  std::size_t payload_bytes = 32; ///< payload size of each publication
  /// Zipf skew over topics (multi-topic mode): topic ranked r is chosen
  /// with probability proportional to 1/(r+1)^zipf_s. 0 = uniform.
  double zipf_s = 0.0;
  /// Pin every publication to one topic (e.g. the flash-crowd hot topic).
  std::optional<TopicId> topic;
  /// Scheduler budget granted between consecutive publications (0 = all
  /// publications enter the network in the same round).
  std::size_t gap = 0;
};

/// One experiment stage. Actions are applied in declaration order:
/// failure-detector retune, supervisor-group changes, churn, flash crowd,
/// chaos/split-brain, publishing — then `run` budget, then the optional
/// convergence wait.
struct Phase {
  std::string name;

  /// Retunes the (supervisor-side) failure detector delay, in rounds.
  std::optional<sim::Round> set_fd_delay;

  /// Multi-topic only: grow the supervisor group by spawning this many
  /// fresh supervisors; topics whose arcs move are rehomed gracefully.
  std::size_t add_supervisors = 0;
  /// Multi-topic only: gracefully drain this many supervisors (they stay
  /// alive; their topics are rehomed via the unsubscribe handshake).
  std::size_t remove_supervisors = 0;
  /// Multi-topic only: fail-stop crash this many supervisors; their topics
  /// are rehomed by force (drop_topic + fresh subscribe at the new owner).
  std::size_t crash_supervisors = 0;

  ChurnWave churn;

  /// Multi-topic only: every client subscribes to this topic at once (the
  /// flash-crowd pattern).
  std::optional<TopicId> flash_crowd_topic;

  /// Single-topic only: corrupt the converged system adversarially.
  std::optional<core::ChaosOptions> chaos;
  /// Single-topic only: split-brain relabeling (core/chaos split_brain).
  bool split_brain = false;

  /// Timed scheduler only: partition windows installed when the phase
  /// starts. Window times are relative to the phase start (in virtual
  /// seconds); the runner shifts them to absolute simulation time.
  std::vector<sim::PartitionWindow> partitions;

  /// Both modes: InjectArbitraryState — rebuild every protocol variable
  /// from scratch via oracle/scramble (the arbitrary initial states the
  /// stabilization theorems quantify over).
  std::optional<oracle::ScrambleOptions> scramble;

  /// CheckInvariants — run the legal-state oracle at phase end and record
  /// its summary in the report (implied for every phase by
  /// ScenarioSpec::oracle). When the phase also waits for convergence, the
  /// wait predicate additionally requires zero oracle violations.
  bool check_invariants = false;

  PublishLoad publish;

  /// Scheduler budget executed after the actions, in units (rounds, or
  /// virtual seconds under Scheduler::kTimed).
  std::size_t run = 0;

  /// After the budget, keep scheduling until the system is converged
  /// (legitimate topology + publication agreement in single-topic mode;
  /// consistent, complete per-topic databases + publication agreement in
  /// multi-topic mode).
  bool converge = false;
  /// Round budget for the convergence wait.
  std::size_t max_rounds = 20000;
};

/// A complete declarative scenario.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::uint64_t seed = 1;
  /// Initial client population size (phase 0 usually joins them).
  std::size_t nodes = 32;

  Mode mode = Mode::kSingleTopic;

  /// How the scenario executes: scheduler flavor, worker count, timed
  /// link model (execution.hpp). Consolidated so the tools validate flag
  /// combinations through one library-level rule set.
  ExecutionSpec exec;

  // ---- multi-topic shape ----------------------------------------------
  std::size_t supervisors = 1;       ///< initial supervisor-group size
  std::size_t topics = 0;            ///< topic universe [1, topics]
  std::size_t topics_per_client = 1; ///< subscriptions per joining client

  /// Failure-detector delay in rounds at scenario start.
  sim::Round fd_delay = 0;

  /// Snapshot cadence in rounds (0 = never). When set, every alive node
  /// serializes its protocol state (encode_state) every this-many rounds;
  /// ChurnWave::recoveries restarts crashed nodes from the snapshot,
  /// which is up to `snapshot_every` rounds stale by construction.
  sim::Round snapshot_every = 0;

  /// Run the invariant oracle after every phase (see Phase::check_invariants).
  bool oracle = false;

  pubsub::PubSubConfig pubsub;

  std::vector<Phase> phases;
};

}  // namespace ssps::scenario
