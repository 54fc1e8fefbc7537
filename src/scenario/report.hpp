// Machine-readable scenario results.
//
// A ScenarioReport is the engine's only output: per-phase traffic,
// convergence and load samples plus scenario-level totals, serializable to
// deterministic JSON (json.hpp). The same writer backs the bench binaries'
// BENCH_<name>.json artifacts so the performance trajectory accumulates in
// one uniform format.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/spec.hpp"
#include "sim/types.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/round_probe.hpp"

namespace ssps::scenario {

/// Load sample for one supervisor process.
struct SupervisorLoad {
  sim::NodeId node;
  std::uint64_t received = 0;   ///< messages delivered to it this phase
  std::size_t topics = 0;       ///< topics it currently serves (multi mode)
  std::size_t database = 0;     ///< total database tuples across its topics
  double arc_share = 0.0;       ///< fraction of the hash ring it owns
};

/// Result of one invariant-oracle sweep at phase end (src/oracle).
struct OracleSummary {
  std::size_t violations = 0;
  std::size_t checked_nodes = 0;
  std::size_t checked_topics = 0;
  /// Violation count per invariant name (kebab-case, sorted).
  std::map<std::string, std::size_t> by_invariant;
  /// First few violation descriptions (diagnostics; capped).
  std::vector<std::string> details;
};

/// Everything measured over one phase. The two duration fields count
/// scheduler units: rounds, or virtual seconds under Scheduler::kTimed.
struct PhaseReport {
  std::string name;
  std::size_t rounds = 0;          ///< scheduler budget consumed (incl. wait)
  bool converged = false;          ///< meaningful when the phase waited
  std::optional<std::size_t> convergence_rounds;

  std::uint64_t messages = 0;      ///< sends during the phase
  std::uint64_t delivered = 0;     ///< deliveries during the phase
  std::uint64_t bytes = 0;         ///< wire bytes sent during the phase
  /// Adversarially injected messages/bytes (chaos junk, scramble garbage).
  std::uint64_t injected = 0;
  std::uint64_t injected_bytes = 0;
  /// Corrupting-link damage this phase (timed scheduler with
  /// LinkProfile::corrupt > 0): messages whose encoded bytes were mangled
  /// in flight, and the subset the wire decoder rejected (with their
  /// original wire bytes). corrupted - rejected messages survived decode
  /// as valid — possibly different — messages and were delivered.
  std::uint64_t corrupted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rejected_bytes = 0;
  /// Crash-recovery lifecycle (ChurnWave::recoveries): nodes restarted
  /// this phase, and how many restored their snapshot cleanly (the rest
  /// restarted from scratch — empty, stale-truncated or corrupted
  /// snapshots all land here).
  std::size_t recovered = 0;
  std::size_t recovered_clean = 0;
  /// Per-action-label (count, bytes) send counters.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_label;

  std::size_t alive_nodes = 0;     ///< alive client nodes at phase end
  std::size_t publications = 0;    ///< distinct publications in the system
  std::size_t moved_topics = 0;    ///< topics rehomed by group changes

  std::vector<SupervisorLoad> supervisor_load;
  /// topic -> subscriber count at phase end (multi-topic mode).
  std::map<TopicId, std::size_t> topic_fanout;

  /// Oracle sweep at phase end (present when the oracle ran this phase).
  std::optional<OracleSummary> oracle;
};

/// Delivery-latency distribution over the whole run: publish to each
/// subscriber's first receipt (telemetry/latency.hpp), measured on the
/// scheduler's clock — rounds or virtual seconds — named by
/// `unit`. Clock values are thread-invariant, so the section is identical
/// across worker counts.
struct LatencyReport {
  /// Unit of every percentile: "rounds" or "virtual-seconds".
  std::string unit = "rounds";
  telemetry::Histogram::Summary global;
  /// topic -> summary (multi-topic runs; empty in single-topic mode).
  std::map<std::uint32_t, telemetry::Histogram::Summary> per_topic;
};

/// Health samples from the telemetry::RoundProbe ring buffer (the last
/// 512 samples of the run, see runner.cpp), one per unit.
struct TimeSeriesReport {
  /// Clock the samples' `round` field ticks in: "rounds" or
  /// "virtual-seconds".
  std::string unit = "rounds";
  std::uint64_t dropped = 0;  ///< samples evicted from the ring
  std::vector<telemetry::RoundSample> samples;
};

/// The full result of one ScenarioRunner::run().
struct ScenarioReport {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t nodes = 0;
  Mode mode = Mode::kSingleTopic;
  std::size_t supervisors = 0;
  std::size_t topics = 0;
  /// Round-scheduler worker count the run used. The only header field
  /// that may differ between otherwise byte-identical reports (determinism
  /// harnesses strip it before comparing across thread counts).
  unsigned threads = 1;
  /// The clock every duration in the report ticks in: "rounds" or
  /// "virtual-seconds" (timed). Together with the two section
  /// `unit` fields, the only lines the timed-equivalence harness strips
  /// before comparing timed-default reports against round reports.
  std::string clock = "rounds";

  std::vector<PhaseReport> phases;

  /// Whole-run delivery-latency percentiles (always present; zero counts
  /// when the scenario never published).
  LatencyReport latency;
  /// Per-round time series (present when the spec enabled sampling).
  std::optional<TimeSeriesReport> timeseries;

  bool ok = false;                 ///< every convergence wait succeeded
  /// Every oracle-checked convergence wait ended in a legal state
  /// (vacuously true when the oracle never ran). False means a wait timed
  /// out with invariants still violated — the phase's OracleSummary names
  /// them.
  bool oracle_ok = true;
  std::size_t total_rounds = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;

  Json to_json() const;
};

/// Writes `text` to `path`. Returns false and leaves no partial file
/// behind on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

/// Writes `doc` to `path` (pretty-printed, trailing newline), as
/// write_text_file does.
bool write_json_file(const std::string& path, const Json& doc);

/// Canonical artifact name for a bench result: "BENCH_<name>.json".
std::string bench_json_path(const std::string& bench_name);

/// Wraps a bench result object ({"bench": name, ...fields}) and writes it
/// to BENCH_<name>.json in the working directory. The bench harness calls
/// this once per binary run.
bool write_bench_json(const std::string& bench_name, Json fields);

}  // namespace ssps::scenario
