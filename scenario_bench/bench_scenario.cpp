// bench_scenario — one repetition of one whole-scenario benchmark workload.
//
// run_benchmark.py starts this binary once per repetition, so peak RSS is
// per repetition, and hands it only the generated inputs: the shape to run
// and the seeds to run it under. Three shapes, each timed from outside
// through public entry points:
//
//   scenario  ScenarioRunner::run() of one builtin per seed
//   deploy    the ssps_deploy CLI (coordinator plus an ssps_noded fleet
//             over localhost TCP), byte-checked against an in-process twin
//   mc        mc::Explorer::run() from one scrambled small-n root per seed
//
// Output is one JSON line: wall and CPU time of the measured region,
// set-up time, schedule units, peak RSS, a digest of every report, the
// deterministic counters and, with --traced, per-layer timings. Those come
// from spans around calls into each layer: a Scheduler decorator around
// every round, ScenarioRunner::run_phase and check_oracle, the publication
// store (publication_key, PatriciaTrie) and wire::decode_message. Spans
// stay in memory and are written at exit as Chrome trace_event JSON.
//
//   $ bench_scenario --kind scenario --scenario scale-steady --nodes 2048 --seeds 7
//   $ bench_scenario --kind mc --nodes 2 --seeds 1,2,3 --traced --trace-out trace.json
//
// `--kind calibrate --threads <n>` instead times n copies of a fixed
// kernel, run_benchmark.py's gauge of how fast the machine runs now.
//
// Exit status: 0 = the JSON line was printed (its "ok" field says whether
// every run was correct), 2 = usage error.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mc/explorer.hpp"
#include "proc/replica.hpp"
#include "pubsub/hash.hpp"
#include "pubsub/patricia.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"
#include "scenario/builtin.hpp"
#include "scenario/mc_certify.hpp"
#include "scenario/runner.hpp"
#include "sched/parallel.hpp"
#include "sched/serial.hpp"
#include "wire/codec.hpp"

namespace {

using ssps::scenario::Json;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User and system CPU seconds of this process (all threads), or of its
/// reaped descendants, plus the largest descendant's peak RSS.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double max_rss_mb = 0.0;

  static CpuTimes of(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    CpuTimes t;
    t.user = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    t.sys = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    t.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    return t;
  }
  double total() const { return user + sys; }
};

/// Peak resident set of this process image in MB (VmHWM). Not ru_maxrss:
/// Linux carries that across exec, so it would report the launching
/// interpreter's peak whenever that is the larger one.
double peak_rss_mb_self() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// A fixed kernel: hash-table inserts and lookups, a sort and an
/// integer-mixing loop. It never touches the system under test.
void calibration_kernel() {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sink = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 100000; ++i) table[next() % 1000000] = i;
  for (int i = 0; i < 400000; ++i) {
    const auto it = table.find(next() % 1000000);
    if (it != table.end()) sink += it->second;
  }
  std::vector<std::uint64_t> values(400000);
  for (std::uint64_t& v : values) v = next();
  std::sort(values.begin(), values.end());
  sink += values[values.size() / 2];
  for (int i = 0; i < 12000000; ++i) sink += next() >> 60;
  static std::atomic<std::uint64_t> keep;
  keep += sink;
}

/// Seconds `threads` concurrent copies of the calibration kernel take right
/// now. No change to the repository moves this, while interference from
/// other work on the machine slows it much as it slows a workload on as
/// many threads; run_benchmark.py scales its timing metrics by it. Run in a
/// process of its own, so its memory never shows in a workload's peak RSS.
double calibration_seconds(unsigned threads) {
  const double start = now_s();
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) pool.emplace_back(calibration_kernel);
  calibration_kernel();
  for (std::thread& t : pool) t.join();
  return now_s() - start;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span tree: every span has an id, its parent's id (0 = root),
/// a start and an end in microseconds since the log was created.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span under the innermost open one.
  void open(std::string name) {
    add(std::move(name), now_us(), 0.0);
    stack_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost open span; returns its duration in seconds.
  double close() {
    Span& span = spans_[stack_.back()];
    stack_.pop_back();
    span.end_us = now_us();
    return (span.end_us - span.start_us) * 1e-6;
  }

  /// Records an already finished span under the innermost open one.
  void add(std::string name, double start_us, double end_us) {
    spans_.push_back({std::move(name), spans_.size() + 1, parent_id(), start_us, end_us});
  }

  /// Chrome trace_event JSON: one complete ("X") event per span.
  Json to_chrome(const std::string& category) const {
    Json events = Json::array();
    for (const Span& s : spans_) {
      Json e = Json::object();
      e["name"] = s.name;
      e["cat"] = category;
      e["ph"] = "X";
      e["ts"] = s.start_us;
      e["dur"] = s.end_us - s.start_us;
      e["pid"] = 1;
      e["tid"] = 1;
      e["args"]["id"] = s.id;
      e["args"]["parent"] = s.parent;
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return doc;
  }

 private:
  std::uint64_t parent_id() const {
    return stack_.empty() ? 0 : spans_[stack_.back()].id;
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // indices of the open spans
};

/// Scheduler decorator: times every advance() of a round scheduler as a
/// "unit" span. Like sched::HookScheduler it forwards every other virtual,
/// so the execution and the report stay the inner scheduler's.
class TimingScheduler final : public ssps::sched::Scheduler {
 public:
  TimingScheduler(std::unique_ptr<ssps::sched::Scheduler> inner, SpanLog& log,
                  std::vector<double>& unit_us)
      : inner_(std::move(inner)), log_(log), unit_us_(unit_us) {}

  std::size_t advance(ssps::sim::Network& net) override {
    const double start = log_.now_us();
    const std::size_t delivered = inner_->advance(net);
    const double end = log_.now_us();
    log_.add("unit", start, end);
    unit_us_.push_back(end - start);
    return delivered;
  }

  Unit unit() const override { return inner_->unit(); }
  void sample(ssps::sim::Network& net, std::size_t delivered) override {
    inner_->sample(net, delivered);
  }
  std::size_t settle_stride(const ssps::sim::Network& net) const override {
    return inner_->settle_stride(net);
  }
  void flush_metrics(ssps::sim::Network& net) override { inner_->flush_metrics(net); }
  void retire() override { inner_->retire(); }
  unsigned threads() const override { return inner_->threads(); }
  std::string_view name() const override { return inner_->name(); }
  std::size_t reserved_bytes() const override { return inner_->reserved_bytes(); }

 private:
  std::unique_ptr<ssps::sched::Scheduler> inner_;
  SpanLog& log_;
  std::vector<double>& unit_us_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ---------------------------------------------------------------------------
// One repetition's results
// ---------------------------------------------------------------------------

/// Daemons of the deploy fleet: with the coordinator, one process per core
/// of a 4-core machine.
constexpr std::size_t kDeployProcs = 3;
/// Junk messages injected into every model-checker root.
constexpr std::size_t kMcJunk = 1;

struct Args {
  std::string kind;
  std::string scenario;
  std::size_t nodes = 0;
  unsigned threads = 1;
  bool scramble = false;
  std::vector<std::uint64_t> seeds;
  bool traced = false;
  std::string trace_out;
  std::string corpus;
  std::string work_dir = ".";
  std::string label = "workload";
};

/// Deterministic counters: equal in every repetition of the same inputs,
/// traced or not.
struct Exact {
  std::uint64_t messages = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t convergence_units = 0;
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t first_receipts = 0;
  std::uint64_t overlay_msgs = 0;
  std::uint64_t flood_msgs = 0;
  std::uint64_t check_trie_msgs = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t relays = 0;
  std::uint64_t relay_bytes = 0;
  std::uint64_t mc_visited = 0;
  std::uint64_t mc_deduped = 0;
  std::uint64_t mc_por_pruned = 0;
  std::uint64_t mc_memo_hits = 0;
  std::uint64_t mc_goal_states = 0;
};

struct Result {
  bool ok = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  // measured region
  /// Seconds per construction of the deployment (runner, explorer, or
  /// live fleet start-up); the reported set-up time is their median.
  std::vector<double> setup_samples;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t units = 0;  // schedule units (mc: search positions)
  std::uint64_t digest = 0;
  Exact exact;
  Json layers = Json::object();  // --traced only

  void fail(std::string why) {
    ok = false;
    errors.push_back(std::move(why));
  }
  void fold_digest(std::string_view text) {
    digest = digest * 0x100000001b3ULL ^ ssps::pubsub::fnv1a64(text);
  }
};

/// Per-layer accumulators of a traced scenario run.
struct Trace {
  SpanLog log;
  std::vector<double> unit_us;  // every timed advance()
  double phase_s = 0.0;         // Σ run_phase wall
  double phase_advance_s = 0.0; // Σ advance wall inside run_phase
  double bootstrap_s = 0.0;     // Σ wall of phase 0
  bool decorated = false;       // a round scheduler was wrapped
};

// ---------------------------------------------------------------------------
// Scenario shape
// ---------------------------------------------------------------------------

/// Labels of the BuildSR overlay's messages (core), as opposed to the
/// Algorithm 5 publication messages (pubsub).
constexpr std::string_view kOverlayLabels[] = {
    "Check",     "Introduce", "IntroduceShortcut", "SetData",
    "Subscribe", "Unsubscribe", "GetConfiguration", "RemoveConnections"};
constexpr std::string_view kFloodLabels[] = {"PublishNew", "Publish", "CheckAndPublish"};

std::uint64_t label_count(const ssps::scenario::PhaseReport& p, std::string_view label) {
  const auto it = p.by_label.find(std::string(label));
  return it == p.by_label.end() ? 0 : it->second.first;
}

/// Convergence waits of one report: each is an attempted operation, and
/// fails when it timed out or ended with oracle violations.
struct Waits {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Folds one scenario report into the deterministic counters and the
/// digest, and checks its verdicts.
Waits account_report(const ssps::scenario::ScenarioSpec& spec,
                     const ssps::scenario::ScenarioReport& report, Result& r) {
  Waits waits;
  Exact& x = r.exact;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const ssps::scenario::PhaseReport& p = report.phases[i];
    x.messages += p.messages;
    x.delivered += p.delivered;
    x.bytes += p.bytes;
    x.corrupted += p.corrupted;
    x.rejected += p.rejected;
    x.convergence_units += p.convergence_rounds.value_or(0);
    for (std::string_view l : kOverlayLabels) x.overlay_msgs += label_count(p, l);
    for (std::string_view l : kFloodLabels) x.flood_msgs += label_count(p, l);
    x.check_trie_msgs += label_count(p, "CheckTrie");
    if (!spec.phases[i].converge) continue;
    waits.attempted += 1;
    const bool illegal = p.oracle.has_value() && p.oracle->violations > 0;
    if (!p.converged || illegal) waits.failed += 1;
  }
  x.first_receipts += report.latency.global.count;
  // A batch reports its worst run's percentiles.
  x.latency_p50 = std::max(x.latency_p50, report.latency.global.p50);
  x.latency_p99 = std::max(x.latency_p99, report.latency.global.p99);
  const std::string run = report.scenario + " seed " + std::to_string(report.seed);
  if (!report.ok) r.fail(run + ": not converged");
  if (!report.oracle_ok) r.fail(run + ": oracle violations");
  r.fold_digest(report.to_json().dump(2));
  return waits;
}

std::unique_ptr<ssps::sched::Scheduler> round_scheduler(unsigned threads) {
  if (threads == 1) return std::make_unique<ssps::sched::SerialScheduler>();
  return std::make_unique<ssps::sched::ParallelScheduler>(threads);
}

/// Runs every phase of `runner`, returning the measured wall time. Traced:
/// a span per phase, and a "unit" span per round of a round scheduler;
/// untraced: one ScenarioRunner::run() call.
double run_scenario(ssps::scenario::ScenarioRunner& runner, Trace* trace) {
  if (trace == nullptr) {
    const double start = now_s();
    runner.run();
    return now_s() - start;
  }
  if (runner.spec().exec.scheduler == ssps::scenario::Scheduler::kRounds) {
    runner.net().set_scheduler(std::make_unique<TimingScheduler>(
        round_scheduler(runner.spec().exec.threads), trace->log, trace->unit_us));
    trace->decorated = true;
  }
  const double start = now_s();
  trace->log.open("scenario seed " + std::to_string(runner.spec().seed));
  for (std::size_t i = 0; i < runner.spec().phases.size(); ++i) {
    const std::size_t units_before = trace->unit_us.size();
    trace->log.open("phase " + runner.spec().phases[i].name);
    runner.run_phase(i);
    const double phase = trace->log.close();
    double advance_us = 0.0;
    for (std::size_t u = units_before; u < trace->unit_us.size(); ++u) {
      advance_us += trace->unit_us[u];
    }
    trace->phase_s += phase;
    trace->phase_advance_s += advance_us * 1e-6;
    if (i == 0) trace->bootstrap_s += phase;
  }
  runner.run();  // no phase left: finalizes totals and latency
  trace->log.close();
  return now_s() - start;
}

/// The deployment's largest publication store (single-topic: a
/// subscriber's trie; multi-topic: one member's per-topic trie).
const ssps::pubsub::PatriciaTrie* largest_store(ssps::scenario::ScenarioRunner& runner) {
  const ssps::pubsub::PatriciaTrie* best = nullptr;
  auto consider = [&](const ssps::pubsub::PatriciaTrie& t) {
    if (best == nullptr || t.size() > best->size()) best = &t;
  };
  if (runner.spec().mode == ssps::scenario::Mode::kSingleTopic) {
    for (ssps::sim::NodeId id : runner.single().active_ids()) {
      consider(runner.single().pubsub(id).trie());
    }
  } else {
    for (ssps::sim::NodeId id : runner.client_ids()) {
      auto& node = runner.net().node_as<ssps::pubsub::MultiTopicNode>(id);
      for (ssps::pubsub::TopicId topic : node.topics()) {
        consider(node.pubsub(topic).trie());
      }
    }
  }
  return best;
}

/// Replays a publication store through the trie's entry points: key
/// derivation, first insert, duplicate insert and root query, each timed
/// per call over enough copies to make ~20k calls.
void replay_store(const ssps::pubsub::PatriciaTrie& store, Trace& trace, Result& r) {
  double key_us = 0.0, insert_us = 0.0, dup_us = 0.0, root_us = 0.0;
  const std::vector<ssps::pubsub::Publication> pubs = store.all();
  if (!pubs.empty()) {
    constexpr std::size_t kCalls = 20000;
    const std::size_t copies = std::max<std::size_t>(1, kCalls / pubs.size());
    const double calls = static_cast<double>(copies * pubs.size());
    const std::size_t m = store.key_bits();
    std::vector<ssps::pubsub::PatriciaTrie> tries(copies, ssps::pubsub::PatriciaTrie(m));
    std::size_t key_bits_seen = 0;
    trace.log.open("pubsub.replay.key");
    for (std::size_t c = 0; c < copies; ++c) {
      for (const auto& p : pubs) {
        key_bits_seen += ssps::pubsub::publication_key(p.origin, p.payload, m).size();
      }
    }
    key_us = trace.log.close() * 1e6 / calls;
    std::size_t inserted = 0;
    trace.log.open("pubsub.replay.insert");
    for (auto& t : tries) {
      for (const auto& p : pubs) inserted += t.insert(p) ? 1 : 0;
    }
    insert_us = trace.log.close() * 1e6 / calls;
    std::size_t duplicates = 0;
    trace.log.open("pubsub.replay.dup_insert");
    for (auto& t : tries) {
      for (const auto& p : pubs) duplicates += t.insert(p) ? 0 : 1;
    }
    dup_us = trace.log.close() * 1e6 / calls;
    std::size_t roots_equal = 0;
    const auto want = store.root();
    trace.log.open("pubsub.replay.root");
    for (const auto& t : tries) roots_equal += t.root() == want ? 1 : 0;
    root_us = trace.log.close() * 1e6 / static_cast<double>(copies);
    if (key_bits_seen != copies * pubs.size() * m ||
        inserted != copies * pubs.size() || duplicates != inserted ||
        roots_equal != copies) {
      r.fail("publication-store replay disagrees with the store it copied");
    }
  }
  r.layers["pubsub.key_us"] = key_us;
  r.layers["pubsub.insert_us"] = insert_us;
  r.layers["pubsub.dup_insert_us"] = dup_us;
  r.layers["pubsub.root_us"] = root_us;
  r.layers["pubsub.replay_store_size"] = static_cast<std::uint64_t>(pubs.size());
}

/// check_oracle() timed after the run; the median of three sweeps.
void time_oracle(ssps::scenario::ScenarioRunner& runner, Trace& trace, Result& r) {
  std::vector<double> sweeps;
  std::size_t checked = 0;
  for (int i = 0; i < 3; ++i) {
    trace.log.open("oracle.sweep");
    const ssps::oracle::OracleReport report = runner.check_oracle();
    sweeps.push_back(trace.log.close() * 1e3);
    checked = report.checked_nodes;
  }
  r.layers["oracle.sweep_ms"] = median(sweeps);
  r.layers["oracle.checked_nodes"] = static_cast<std::uint64_t>(checked);
}

/// wire::decode_message over the valid frames of a corpus directory,
/// repeated to ~4 MB of input; nanoseconds per decoded byte (0 when the
/// directory holds no valid frame).
void time_decode(const std::string& corpus, Trace& trace, Result& r) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t frame_bytes = 0;
  ssps::sim::MessagePool pool;
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  if (!corpus.empty()) {
    for (const auto& entry : std::filesystem::directory_iterator(corpus, ec)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    if (!ssps::wire::decode_message(bytes, pool).ok()) continue;
    frame_bytes += bytes.size();
    frames.push_back(std::move(bytes));
  }
  double ns_per_byte = 0.0;
  if (frame_bytes > 0) {
    constexpr std::size_t kBytes = 4u << 20;
    const std::size_t passes = std::max<std::size_t>(1, kBytes / frame_bytes);
    std::size_t decoded = 0;
    trace.log.open("wire.replay");
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (const auto& f : frames) {
        decoded += ssps::wire::decode_message(f, pool).ok() ? 1 : 0;
      }
    }
    ns_per_byte = trace.log.close() * 1e9 / static_cast<double>(passes * frame_bytes);
    if (decoded != passes * frames.size()) r.fail("a corpus frame stopped decoding");
  }
  r.layers["wire.decode_ns_per_byte"] = ns_per_byte;
  r.layers["wire.corpus_frames"] = static_cast<std::uint64_t>(frames.size());
}

/// Constructions timed per seed (the run uses the last one): one takes
/// tens of microseconds, so a single sample would mostly measure noise.
constexpr int kSetupSamples = 3;

void run_scenario_kind(const Args& a, Trace* trace, Result& r) {
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    ssps::scenario::ScenarioSpec spec;
    std::unique_ptr<ssps::scenario::ScenarioRunner> runner;
    for (int sample = 0; sample < kSetupSamples; ++sample) {
      runner.reset();
      const double start = now_s();
      spec = ssps::scenario::builtin_scenario(a.scenario, a.seeds[i], a.nodes);
      if (a.scramble) spec = ssps::scenario::scrambled_variant(std::move(spec));
      spec.exec.threads = a.threads;
      runner = std::make_unique<ssps::scenario::ScenarioRunner>(spec);
      r.setup_samples.push_back(now_s() - start);
    }

    const CpuTimes c0 = CpuTimes::of(RUSAGE_SELF);
    r.wall_s += run_scenario(*runner, trace);
    const CpuTimes c1 = CpuTimes::of(RUSAGE_SELF);
    r.cpu_s += c1.total() - c0.total();
    r.peak_rss_mb = peak_rss_mb_self();
    r.units += runner->report().total_rounds;
    const Waits waits = account_report(spec, runner->report(), r);
    r.attempted += waits.attempted;
    r.failed += waits.failed;

    // Layer replays run after the measured region, on the batch's first
    // deployment only.
    if (trace != nullptr && i == 0) {
      r.layers["sim.pool_mb"] =
          static_cast<double>(runner->net().pool_reserved_bytes()) / (1 << 20);
      time_oracle(*runner, *trace, r);
      const ssps::pubsub::PatriciaTrie* store = largest_store(*runner);
      replay_store(store != nullptr ? *store : ssps::pubsub::PatriciaTrie(), *trace, r);
    }
  }
}

// ---------------------------------------------------------------------------
// Deploy shape
// ---------------------------------------------------------------------------

/// Value of a flat top-level "deploy_<key>": <integer> line of a report.
std::uint64_t deploy_field(const std::string& text, const std::string& key) {
  const std::string needle = "\"deploy_" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  std::uint64_t v = 0;
  const char* begin = text.data() + at + needle.size();
  std::from_chars(begin, text.data() + text.size(), v);
  return v;
}

/// The report minus its deploy_* lines — what the in-process simulator
/// prints for the same inputs (the deploy differential's comparison).
std::string strip_deploy_lines(const std::string& text) {
  std::istringstream in(text);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("\"deploy_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void run_deploy_kind(const Args& a, Trace* trace, Result& r) {
  if (a.seeds.size() != 1) {
    r.fail("deploy runs exactly one seed per repetition");
    return;
  }
  const std::string out_path =
      a.work_dir + "/deploy-report-" + std::to_string(::getpid()) + ".json";
  std::vector<std::string> args = {SSPS_DEPLOY_BIN, "--noded", SSPS_NODED_BIN,
                                   "--scenario", a.scenario,
                                   "--nodes", std::to_string(a.nodes),
                                   "--procs", std::to_string(kDeployProcs),
                                   "--seed", std::to_string(a.seeds[0]),
                                   "--quiet", "--out", out_path};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  const CpuTimes before = CpuTimes::of(RUSAGE_CHILDREN);
  if (trace != nullptr) trace->log.open("deploy " + std::to_string(kDeployProcs) + " procs");
  const double start = now_s();
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Keep this binary's stdout for its one JSON line.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) status = -1;
  const double process_s = now_s() - start;
  if (trace != nullptr) trace->log.close();
  const CpuTimes after = CpuTimes::of(RUSAGE_CHILDREN);

  std::ifstream in(out_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::filesystem::remove(out_path);
  const bool exited_ok = status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  r.attempted = 1;
  if (!exited_ok || text.empty()) {
    r.failed = 1;
    r.fail("ssps_deploy failed (status " + std::to_string(status) + ")");
    return;
  }

  // The coordinator times its lockstep run; the rest of the process's life
  // is fleet spawn, handshake, report exchange and shutdown.
  r.wall_s = static_cast<double>(deploy_field(text, "wall_ms")) * 1e-3;
  r.setup_samples.push_back(process_s - r.wall_s);
  r.units = deploy_field(text, "rounds");
  r.cpu_s = after.total() - before.total();
  r.peak_rss_mb = after.max_rss_mb;
  r.exact.relays = deploy_field(text, "relays");
  r.exact.relay_bytes = deploy_field(text, "relay_bytes");

  // The in-process twin: same scenario, same seed. Its report must be the
  // live report byte for byte, and it supplies the deterministic counters.
  ssps::proc::ScenarioChoice choice;
  choice.name = a.scenario;
  choice.seed = a.seeds[0];
  choice.nodes = a.nodes;
  ssps::scenario::ScenarioSpec spec;
  ssps::proc::build_scenario(choice, spec);
  ssps::scenario::ScenarioRunner twin(spec);
  const double twin_s = run_scenario(twin, nullptr);
  account_report(spec, twin.report(), r);
  if (strip_deploy_lines(text) != twin.report().to_json().dump(2)) {
    r.fail("live report differs from the in-process twin's");
  }
  r.failed = r.ok ? 0 : 1;
  if (trace != nullptr) {
    // The fleet is the coordinator plus one daemon per shard.
    const double workers = static_cast<double>(kDeployProcs + 1);
    r.layers["proc.cpu_s"] = r.cpu_s;
    r.layers["proc.sys_s"] = after.sys - before.sys;
    r.layers["proc.busy_share"] = r.wall_s > 0 ? r.cpu_s / (r.wall_s * workers) : 0.0;
    r.layers["proc.twin_s"] = twin_s;
    r.layers["proc.gap_x"] = twin_s > 0 ? r.wall_s / twin_s : 0.0;
    time_oracle(twin, *trace, r);
  }
}

// ---------------------------------------------------------------------------
// Model-checker shape
// ---------------------------------------------------------------------------

void run_mc_kind(const Args& a, Trace* trace, Result& r) {
  for (std::uint64_t seed : a.seeds) {
    ssps::mc::Executor::Options options =
        ssps::scenario::mc_certify_options(seed, a.nodes);
    options.scramble.junk_messages = kMcJunk;
    if (trace != nullptr) trace->log.open("mc root " + std::to_string(seed));
    std::unique_ptr<ssps::mc::Explorer> explorer;
    for (int sample = 0; sample < kSetupSamples; ++sample) {
      explorer.reset();
      const double start = now_s();
      explorer = std::make_unique<ssps::mc::Explorer>(options);
      r.setup_samples.push_back(now_s() - start);
    }
    const CpuTimes c0 = CpuTimes::of(RUSAGE_SELF);
    const double start = now_s();
    const ssps::mc::Certificate cert = explorer->run();
    r.wall_s += now_s() - start;
    const CpuTimes c1 = CpuTimes::of(RUSAGE_SELF);
    if (trace != nullptr) trace->log.close();
    r.cpu_s += c1.total() - c0.total();

    const ssps::mc::Stats& s = cert.stats;
    Exact& x = r.exact;
    x.mc_visited += s.visited;
    x.mc_deduped += s.deduped;
    x.mc_por_pruned += s.por_pruned;
    x.mc_memo_hits += s.memo_hits;
    x.mc_goal_states += s.goal_states;
    // A search position is any state the explorer evaluated: expanded,
    // answered by the visited set or the round memo, or a legal endpoint.
    r.units += s.visited + s.deduped + s.memo_hits + s.goal_states;
    r.attempted += 1;
    if (!cert.certified) {
      r.failed += 1;
      r.fail("mc root " + std::to_string(seed) + " not certified");
    }
    r.fold_digest(std::to_string(s.visited) + "/" + std::to_string(s.deduped) + "/" +
                  std::to_string(s.por_pruned) + "/" + std::to_string(s.memo_hits) + "/" +
                  std::to_string(s.goal_states) + "/" + std::to_string(s.max_depth));
  }
  r.peak_rss_mb = peak_rss_mb_self();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Highest of a fixed percentile ladder with at least ten samples beyond
/// it; returns {percentile, value}. Fewer than 11 samples: the maximum.
std::pair<double, double> tail_of(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  for (double pct : {99.9, 99.0, 90.0, 80.0, 50.0}) {
    const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
    const auto index = static_cast<std::size_t>(rank);
    if (v.size() - 1 - index >= 10) return {pct, v[index]};
  }
  return {100.0, v.back()};
}

/// Layer timings derived from the spans of a traced scenario run. Layers
/// a shape never reaches are left out; run_benchmark.py reports them as 0.
void add_trace_layers(const Trace& t, Result& r) {
  Json& l = r.layers;
  const double wall = r.wall_s > 0 ? r.wall_s : 1.0;
  if (t.decorated) {
    double advance_s = 0.0;
    std::vector<double> unit_ms;
    for (double us : t.unit_us) {
      advance_s += us * 1e-6;
      unit_ms.push_back(us * 1e-3);
    }
    const auto [tail_pct, tail_ms] = tail_of(unit_ms);
    l["sched.advance_s"] = advance_s;
    l["sched.advance_share"] = advance_s / wall;
    l["sched.unit_ms_p50"] = median(unit_ms);
    l["sched.unit_ms_tail"] = tail_ms;
    l["sched.unit_tail_pct"] = tail_pct;
    l["sched.unit_samples"] = static_cast<std::uint64_t>(unit_ms.size());
    // Scenario self time is only separable where the rounds were timed.
    const double self = t.phase_s - t.phase_advance_s;
    l["scenario.self_s"] = self;
    l["scenario.self_share"] = self / wall;
  }
  if (t.phase_s > 0) l["scenario.bootstrap_s"] = t.bootstrap_s;
}

Json exact_json(const Exact& x) {
  Json j = Json::object();
  j["messages"] = x.messages;
  j["delivered"] = x.delivered;
  j["bytes"] = x.bytes;
  j["convergence_units"] = x.convergence_units;
  j["latency_p50"] = x.latency_p50;
  j["latency_p99"] = x.latency_p99;
  j["first_receipts"] = x.first_receipts;
  j["overlay_msgs"] = x.overlay_msgs;
  j["flood_msgs"] = x.flood_msgs;
  j["check_trie_msgs"] = x.check_trie_msgs;
  j["corrupted"] = x.corrupted;
  j["rejected"] = x.rejected;
  j["relays"] = x.relays;
  j["relay_bytes"] = x.relay_bytes;
  j["mc_visited"] = x.mc_visited;
  j["mc_deduped"] = x.mc_deduped;
  j["mc_por_pruned"] = x.mc_por_pruned;
  j["mc_memo_hits"] = x.mc_memo_hits;
  j["mc_goal_states"] = x.mc_goal_states;
  return j;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  const char* end = s + std::char_traits<char>::length(s);
  const auto [ptr, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_seeds(const char* s, std::vector<std::uint64_t>& out) {
  if (s == nullptr) return false;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::uint64_t v = 0;
    if (!parse_u64(item.c_str(), v)) return false;
    out.push_back(v);
  }
  return !out.empty();
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_scenario --kind scenario|deploy|mc --seeds <s>[,<s>...]\n"
               "                      [--scenario <builtin>] [--nodes <n>]\n"
               "                      [--threads <n>] [--scramble]\n"
               "                      [--traced] [--trace-out <file>] [--corpus <dir>]\n"
               "                      [--work-dir <dir>] [--label <workload>]\n"
               "       bench_scenario --kind calibrate [--threads <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    std::uint64_t v = 0;
    if (arg == "--kind") {
      const char* s = value();
      if (s == nullptr) return usage();
      a.kind = s;
    } else if (arg == "--scenario") {
      const char* s = value();
      if (s == nullptr) return usage();
      a.scenario = s;
    } else if (arg == "--nodes" || arg == "--threads") {
      if (!parse_u64(value(), v) || v == 0 || v > (1u << 20)) return usage();
      if (arg == "--nodes") a.nodes = v;
      if (arg == "--threads") a.threads = static_cast<unsigned>(v);
    } else if (arg == "--seeds") {
      if (!parse_seeds(value(), a.seeds)) return usage();
    } else if (arg == "--scramble") {
      a.scramble = true;
    } else if (arg == "--traced") {
      a.traced = true;
    } else if (arg == "--trace-out" || arg == "--corpus" || arg == "--work-dir" ||
               arg == "--label") {
      const char* s = value();
      if (s == nullptr) return usage();
      if (arg == "--trace-out") a.trace_out = s;
      if (arg == "--corpus") a.corpus = s;
      if (arg == "--work-dir") a.work_dir = s;
      if (arg == "--label") a.label = s;
    } else {
      std::fprintf(stderr, "bench_scenario: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (a.kind == "calibrate") {
    std::printf("{\"calibration_us\":%.3f}\n", calibration_seconds(a.threads) * 1e6);
    return 0;
  }
  const bool needs_scenario = a.kind == "scenario" || a.kind == "deploy";
  if (a.seeds.empty() || a.nodes == 0 ||
      (a.kind != "mc" && !needs_scenario) ||
      (needs_scenario && !ssps::scenario::is_builtin(a.scenario))) {
    return usage();
  }

  Result r;
  std::unique_ptr<Trace> trace = a.traced ? std::make_unique<Trace>() : nullptr;
  if (trace) trace->log.open(a.label);
  if (a.kind == "scenario") run_scenario_kind(a, trace.get(), r);
  if (a.kind == "deploy") run_deploy_kind(a, trace.get(), r);
  if (a.kind == "mc") run_mc_kind(a, trace.get(), r);
  if (trace) {
    time_decode(a.corpus, *trace, r);
    trace->log.close();
    add_trace_layers(*trace, r);
    if (!a.trace_out.empty() &&
        !ssps::scenario::write_json_file(a.trace_out, trace->log.to_chrome(a.label))) {
      r.fail("cannot write " + a.trace_out);
    }
  }
  if (r.failed > 0) r.ok = false;

  Json out = Json::object();
  out["ok"] = r.ok;
  Json errors = Json::array();
  for (const std::string& e : r.errors) errors.push_back(e);
  out["errors"] = std::move(errors);
  out["attempted"] = r.attempted;
  out["failed"] = r.failed;
  // Times in microseconds: the JSON writer prints six decimals, and a
  // construction takes only tens of microseconds.
  out["wall_us"] = r.wall_s * 1e6;
  out["setup_us"] = median(r.setup_samples) * 1e6;
  out["cpu_us"] = r.cpu_s * 1e6;
  out["peak_rss_mb"] = r.peak_rss_mb;
  out["units"] = r.units;
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  out["digest"] = digest;
  out["exact"] = exact_json(r.exact);
  out["layers"] = std::move(r.layers);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}
