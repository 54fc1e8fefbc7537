#include "scenario/builtin.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ssps::scenario {

namespace {

std::size_t at_least(std::size_t v, std::size_t floor_) { return std::max(v, floor_); }

/// One supervised ring living its whole life: bootstrap, a steady-state
/// maintenance window, then a publish burst. The baseline every other
/// scenario is compared against.
ScenarioSpec steady(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "steady";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase steady_window;
  steady_window.name = "steady";
  steady_window.run = 50;
  steady_window.converge = true;
  spec.phases.push_back(steady_window);

  Phase burst;
  burst.name = "publish-burst";
  burst.publish.count = at_least(nodes / 4, 4);
  burst.publish.gap = 1;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

/// Waves of join/leave/crash churn over a sharded multi-topic deployment,
/// including one supervisor crash and one supervisor join — the PSVR-style
/// stabilization-under-churn evaluation plus consistent-hashing arc
/// rebalancing.
ScenarioSpec churn_wave(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "churn-wave";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kMultiTopic;
  spec.supervisors = 3;
  spec.topics = at_least(nodes / 4, 4);
  spec.topics_per_client = 2;
  spec.fd_delay = 2;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase seed_pubs;
  seed_pubs.name = "seed-publications";
  seed_pubs.publish.count = at_least(nodes / 2, 4);
  seed_pubs.converge = true;
  spec.phases.push_back(seed_pubs);

  Phase wave1;
  wave1.name = "wave-1";
  wave1.churn.joins = at_least(nodes / 4, 2);
  wave1.churn.leaves = at_least(nodes / 8, 1);
  wave1.churn.crashes = at_least(nodes / 8, 1);
  wave1.converge = true;
  spec.phases.push_back(wave1);

  Phase sup_crash;
  sup_crash.name = "supervisor-crash";
  sup_crash.crash_supervisors = 1;
  sup_crash.converge = true;
  spec.phases.push_back(sup_crash);

  Phase sup_join;
  sup_join.name = "supervisor-join";
  sup_join.add_supervisors = 1;
  sup_join.converge = true;
  spec.phases.push_back(sup_join);

  Phase wave2;
  wave2.name = "wave-2";
  wave2.set_fd_delay = 6;  // degraded detector during the second wave
  wave2.churn.joins = at_least(nodes / 8, 1);
  wave2.churn.crashes = at_least(nodes / 8, 1);
  wave2.converge = true;
  spec.phases.push_back(wave2);
  return spec;
}

/// Flash crowd: a sharded deployment at rest, then every client subscribes
/// to one hot topic at once and a publish burst hits it.
ScenarioSpec flash_crowd(std::uint64_t seed, std::size_t nodes) {
  constexpr TopicId kHotTopic = 1;
  ScenarioSpec spec;
  spec.name = "flash-crowd";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kMultiTopic;
  spec.supervisors = 2;
  spec.topics = at_least(nodes / 2, 8);
  spec.topics_per_client = 1;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase flash;
  flash.name = "flash";
  flash.flash_crowd_topic = kHotTopic;
  flash.converge = true;
  spec.phases.push_back(flash);

  Phase burst;
  burst.name = "hot-burst";
  burst.publish.count = at_least(nodes / 2, 8);
  burst.publish.topic = kHotTopic;
  burst.publish.gap = 1;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

/// Zipf-skewed topic publication workload (the VCube-PS evaluation shape):
/// most publications hit a few hot topics; per-supervisor load and
/// per-topic fan-out are the quantities of interest.
ScenarioSpec zipf_topics(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "zipf-topics";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kMultiTopic;
  spec.supervisors = 3;
  spec.topics = at_least(nodes, 8);
  spec.topics_per_client = 3;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase workload;
  workload.name = "zipf-workload";
  workload.publish.count = at_least(2 * nodes, 16);
  workload.publish.zipf_s = 1.2;
  workload.publish.gap = 1;
  workload.converge = true;
  spec.phases.push_back(workload);
  return spec;
}

/// Split-brain partition plus adversarial corruption: the hardest recovery
/// drill the chaos layer offers, measured phase by phase.
ScenarioSpec partition_drill(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "partition-drill";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;
  spec.fd_delay = 4;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase pubs;
  pubs.name = "seed-publications";
  pubs.publish.count = at_least(nodes / 4, 3);
  pubs.converge = true;
  spec.phases.push_back(pubs);

  Phase partition;
  partition.name = "split-brain";
  partition.split_brain = true;
  partition.converge = true;
  spec.phases.push_back(partition);

  Phase aftershock;
  aftershock.name = "chaos-aftershock";
  core::ChaosOptions chaos;
  chaos.seed = seed * 31 + 7;
  aftershock.chaos = chaos;
  aftershock.converge = true;
  spec.phases.push_back(aftershock);

  Phase crashes;
  crashes.name = "crash-minimum";
  crashes.set_fd_delay = 2;
  crashes.churn.crashes = at_least(nodes / 6, 1);
  crashes.churn.crash_min_label = true;
  crashes.converge = true;
  spec.phases.push_back(crashes);
  return spec;
}

// ---- timed family ---------------------------------------------------
// Event-driven virtual-clock scenarios (Scheduler::kTimed): per-link
// latency distributions, seeded faults and partition schedules replace the
// round model's idealized channel. Durations and latency percentiles in
// their reports read as virtual seconds.

/// Three-zone geo deployment: same-rack links at a constant 50 ms,
/// cross-zone links uniform in 100–800 ms. After seeding publications the
/// link between zones 0 and 1 is cut for 20 virtual seconds, then heals —
/// the recovery wait and the closing burst measure stabilization time in
/// seconds.
ScenarioSpec geo_steady(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "geo-steady";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;
  spec.fd_delay = 4;
  apply_latency_profile(spec.exec, "geo");

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase pubs;
  pubs.name = "seed-publications";
  pubs.publish.count = at_least(nodes / 4, 3);
  pubs.converge = true;
  spec.phases.push_back(pubs);

  Phase cut;
  cut.name = "zone-partition";
  sim::PartitionWindow window;
  window.from_s = 0;
  window.to_s = 20;
  window.zone_a = 0;
  window.zone_b = 1;
  cut.partitions.push_back(window);
  cut.run = 20;  // ride out the cut; the convergence wait starts healed
  cut.converge = true;
  spec.phases.push_back(cut);

  Phase burst;
  burst.name = "healed-burst";
  burst.publish.count = at_least(nodes / 4, 3);
  burst.publish.gap = 1;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

/// Lossy wide-area churn: every link drops 5% of messages, duplicates 1%
/// and reorders 2% on top of a jittery 20–250 ms latency, while a churn
/// wave runs. The self-stabilizing timeouts must recover everything the
/// link layer eats.
ScenarioSpec lossy_churn(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "lossy-churn";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;
  spec.exec.scheduler = Scheduler::kTimed;
  spec.fd_delay = 4;  // a lost heartbeat must not evict instantly
  spec.exec.timed.local.latency = {sim::LatencySpec::Dist::kUniform, 0.02, 0.25};
  spec.exec.timed.local.loss = 0.05;
  spec.exec.timed.local.duplicate = 0.01;
  spec.exec.timed.local.reorder = 0.02;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase pubs;
  pubs.name = "seed-publications";
  pubs.publish.count = at_least(nodes / 4, 3);
  pubs.converge = true;
  spec.phases.push_back(pubs);

  Phase wave;
  wave.name = "churn-wave";
  wave.churn.joins = at_least(nodes / 8, 1);
  wave.churn.leaves = at_least(nodes / 8, 1);
  wave.churn.crashes = at_least(nodes / 8, 1);
  wave.converge = true;
  spec.phases.push_back(wave);

  Phase burst;
  burst.name = "lossy-burst";
  burst.publish.count = at_least(nodes / 4, 3);
  burst.publish.gap = 1;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

/// Survive the wire: lossy-churn's jittery links plus a corrupting channel
/// (2% of messages are bit-flipped/truncated/spliced in flight and must be
/// caught — or survived — by the wire codec) and a crash-recovery wave:
/// crashed nodes restart from periodic snapshots that are stale by up to
/// the snapshot cadence, then re-stabilize oracle-green.
ScenarioSpec chaos_churn(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "chaos-churn";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;
  spec.exec.scheduler = Scheduler::kTimed;
  spec.fd_delay = 4;
  spec.exec.timed.local.latency = {sim::LatencySpec::Dist::kUniform, 0.02, 0.25};
  spec.exec.timed.local.loss = 0.05;
  spec.exec.timed.local.duplicate = 0.01;
  spec.exec.timed.local.reorder = 0.02;
  spec.exec.timed.local.corrupt = 0.02;
  spec.snapshot_every = 5;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase pubs;
  pubs.name = "seed-publications";
  pubs.publish.count = at_least(nodes / 4, 3);
  pubs.converge = true;
  spec.phases.push_back(pubs);

  Phase wave;
  wave.name = "crash-wave";
  wave.churn.joins = at_least(nodes / 8, 1);
  wave.churn.crashes = at_least(nodes / 8, 1);
  wave.converge = true;
  spec.phases.push_back(wave);

  Phase recover;
  recover.name = "recover";
  recover.churn.recoveries = at_least(nodes / 8, 1);
  recover.converge = true;
  spec.phases.push_back(recover);

  Phase burst;
  burst.name = "corrupted-burst";
  burst.publish.count = at_least(nodes / 4, 3);
  burst.publish.gap = 1;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

// ---- scale family ---------------------------------------------------
// Large-n workloads (default n = 1024, meant for n up to 4096): the same
// shapes as the small builtins but tuned so the convergence predicates
// stay affordable at thousands of nodes — single ring for steady/churn,
// and a deliberately small topic universe for the flash crowd so per-topic
// rings are big instead of numerous.

ScenarioSpec scale_steady(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "scale-steady";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase steady_window;
  steady_window.name = "steady";
  steady_window.run = 25;
  steady_window.converge = true;
  spec.phases.push_back(steady_window);

  Phase burst;
  burst.name = "publish-burst";
  burst.publish.count = 64;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

ScenarioSpec scale_churn(std::uint64_t seed, std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "scale-churn";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kSingleTopic;
  spec.fd_delay = 2;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase wave1;
  wave1.name = "wave-1";
  wave1.churn.joins = at_least(nodes / 16, 2);
  wave1.churn.leaves = at_least(nodes / 32, 1);
  wave1.churn.crashes = at_least(nodes / 32, 1);
  wave1.converge = true;
  spec.phases.push_back(wave1);

  Phase wave2;
  wave2.name = "wave-2";
  wave2.set_fd_delay = 4;  // degraded detector during the second wave
  wave2.churn.crashes = at_least(nodes / 32, 1);
  wave2.churn.crash_min_label = true;
  wave2.converge = true;
  spec.phases.push_back(wave2);
  return spec;
}

ScenarioSpec scale_flash(std::uint64_t seed, std::size_t nodes) {
  constexpr TopicId kHotTopic = 1;
  ScenarioSpec spec;
  spec.name = "scale-flash";
  spec.seed = seed;
  spec.nodes = nodes;
  spec.mode = Mode::kMultiTopic;
  spec.supervisors = 4;
  spec.topics = 32;
  spec.topics_per_client = 1;

  Phase bootstrap;
  bootstrap.name = "bootstrap";
  bootstrap.churn.joins = nodes;
  bootstrap.converge = true;
  spec.phases.push_back(bootstrap);

  Phase flash;
  flash.name = "flash";
  flash.flash_crowd_topic = kHotTopic;
  flash.converge = true;
  spec.phases.push_back(flash);

  Phase burst;
  burst.name = "hot-burst";
  burst.publish.count = 64;
  burst.publish.topic = kHotTopic;
  burst.converge = true;
  spec.phases.push_back(burst);
  return spec;
}

/// Single registry: name -> factory. --list, is_builtin and
/// builtin_scenario all read this table, so a new scenario is one entry.
struct BuiltinEntry {
  const char* name;
  ScenarioSpec (*make)(std::uint64_t seed, std::size_t nodes);
  /// Population used when the caller does not specify one.
  std::size_t default_nodes;
};

constexpr BuiltinEntry kBuiltins[] = {
    {"steady", steady, 32},
    {"churn-wave", churn_wave, 32},
    {"flash-crowd", flash_crowd, 32},
    {"zipf-topics", zipf_topics, 32},
    {"partition-drill", partition_drill, 32},
    {"geo-steady", geo_steady, 32},
    {"lossy-churn", lossy_churn, 32},
    {"chaos-churn", chaos_churn, 32},
    {"scale-steady", scale_steady, 1024},
    {"scale-churn", scale_churn, 1024},
    {"scale-flash", scale_flash, 1024},
};

}  // namespace

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const BuiltinEntry& entry : kBuiltins) names.emplace_back(entry.name);
  return names;
}

bool is_builtin(const std::string& name) {
  for (const BuiltinEntry& entry : kBuiltins) {
    if (name == entry.name) return true;
  }
  return false;
}

ScenarioSpec builtin_scenario(const std::string& name, std::uint64_t seed,
                              std::size_t nodes) {
  for (const BuiltinEntry& entry : kBuiltins) {
    if (name == entry.name) {
      return entry.make(seed, nodes == 0 ? entry.default_nodes : nodes);
    }
  }
  SSPS_ASSERT_MSG(false, "unknown built-in scenario name");
  return {};
}

ScenarioSpec scrambled_variant(ScenarioSpec spec) {
  SSPS_ASSERT_MSG(!spec.phases.empty(), "scrambled_variant: spec has no phases");
  spec.name += "-scrambled";
  spec.oracle = true;

  Phase scramble;
  scramble.name = "scramble";
  oracle::ScrambleOptions options;
  // Decorrelate from the scheduler/runner streams, which consume the raw
  // spec seed.
  options.seed = spec.seed * 0x9e3779b97f4a7c15ULL + 0x5ca91b1e5ca91b1eULL;
  scramble.scramble = options;
  scramble.converge = true;
  spec.phases.insert(spec.phases.begin() + 1, std::move(scramble));
  return spec;
}

}  // namespace ssps::scenario
