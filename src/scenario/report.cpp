#include "scenario/report.hpp"

#include <cstdio>

namespace ssps::scenario {

namespace {

const char* mode_name(Mode mode) {
  return mode == Mode::kSingleTopic ? "single-topic" : "multi-topic";
}

Json phase_to_json(const PhaseReport& p) {
  Json j = Json::object();
  j["name"] = p.name;
  j["rounds"] = static_cast<std::uint64_t>(p.rounds);
  j["converged"] = p.converged;
  if (p.convergence_rounds) {
    j["convergence_rounds"] = static_cast<std::uint64_t>(*p.convergence_rounds);
  }
  j["messages"] = p.messages;
  j["delivered"] = p.delivered;
  j["bytes"] = p.bytes;
  if (p.injected > 0) {
    j["injected"] = p.injected;
    j["injected_bytes"] = p.injected_bytes;
  }
  // Emitted only when the faults actually fired, so reports of scenarios
  // without a corrupting link or recovery wave stay byte-identical.
  if (p.corrupted > 0 || p.rejected > 0) {
    j["corrupted"] = p.corrupted;
    j["rejected"] = p.rejected;
    j["rejected_bytes"] = p.rejected_bytes;
  }
  if (p.recovered > 0) {
    j["recovered"] = static_cast<std::uint64_t>(p.recovered);
    j["recovered_clean"] = static_cast<std::uint64_t>(p.recovered_clean);
  }
  Json labels = Json::object();
  for (const auto& [name, cb] : p.by_label) {
    Json entry = Json::object();
    entry["count"] = cb.first;
    entry["bytes"] = cb.second;
    labels[name] = std::move(entry);
  }
  j["by_label"] = std::move(labels);
  j["alive_nodes"] = static_cast<std::uint64_t>(p.alive_nodes);
  j["publications"] = static_cast<std::uint64_t>(p.publications);
  j["moved_topics"] = static_cast<std::uint64_t>(p.moved_topics);
  Json load = Json::array();
  for (const SupervisorLoad& s : p.supervisor_load) {
    Json entry = Json::object();
    entry["node"] = s.node.value;
    entry["received"] = s.received;
    entry["topics"] = static_cast<std::uint64_t>(s.topics);
    entry["database"] = static_cast<std::uint64_t>(s.database);
    entry["arc_share"] = s.arc_share;
    load.push_back(std::move(entry));
  }
  j["supervisor_load"] = std::move(load);
  if (!p.topic_fanout.empty()) {
    Json fanout = Json::object();
    for (const auto& [topic, subs] : p.topic_fanout) {
      fanout[std::to_string(topic)] = static_cast<std::uint64_t>(subs);
    }
    j["topic_fanout"] = std::move(fanout);
  }
  if (p.oracle) {
    Json oracle = Json::object();
    oracle["violations"] = static_cast<std::uint64_t>(p.oracle->violations);
    oracle["checked_nodes"] = static_cast<std::uint64_t>(p.oracle->checked_nodes);
    oracle["checked_topics"] = static_cast<std::uint64_t>(p.oracle->checked_topics);
    Json by_invariant = Json::object();
    for (const auto& [name, count] : p.oracle->by_invariant) {
      by_invariant[name] = static_cast<std::uint64_t>(count);
    }
    oracle["by_invariant"] = std::move(by_invariant);
    Json details = Json::array();
    for (const std::string& d : p.oracle->details) details.push_back(d);
    oracle["details"] = std::move(details);
    j["oracle"] = std::move(oracle);
  }
  return j;
}

Json summary_to_json(const telemetry::Histogram::Summary& s) {
  Json j = Json::object();
  j["count"] = s.count;
  j["p50"] = s.p50;
  j["p99"] = s.p99;
  j["p999"] = s.p999;
  j["max"] = s.max;
  return j;
}

Json latency_to_json(const LatencyReport& l) {
  Json j = Json::object();
  j["unit"] = l.unit;
  j["global"] = summary_to_json(l.global);
  Json per_topic = Json::object();
  for (const auto& [topic, summary] : l.per_topic) {
    per_topic[std::to_string(topic)] = summary_to_json(summary);
  }
  j["per_topic"] = std::move(per_topic);
  return j;
}

Json timeseries_to_json(const TimeSeriesReport& ts) {
  Json j = Json::object();
  j["unit"] = ts.unit;
  j["dropped"] = ts.dropped;
  Json samples = Json::array();
  for (const telemetry::RoundSample& s : ts.samples) {
    Json entry = Json::object();
    entry["round"] = static_cast<std::uint64_t>(s.round);
    entry["delivered"] = s.delivered;
    entry["timeouts"] = s.timeouts;
    entry["in_flight"] = s.in_flight;
    entry["alive"] = s.alive;
    entry["nonconforming"] = s.nonconforming;
    samples.push_back(std::move(entry));
  }
  j["samples"] = std::move(samples);
  return j;
}

}  // namespace

Json ScenarioReport::to_json() const {
  Json j = Json::object();
  j["scenario"] = scenario;
  j["seed"] = seed;
  j["nodes"] = static_cast<std::uint64_t>(nodes);
  j["mode"] = mode_name(mode);
  j["supervisors"] = static_cast<std::uint64_t>(supervisors);
  j["topics"] = static_cast<std::uint64_t>(topics);
  j["threads"] = static_cast<std::uint64_t>(threads);
  j["clock"] = clock;
  j["ok"] = ok;
  j["oracle_ok"] = oracle_ok;
  Json totals = Json::object();
  totals["rounds"] = static_cast<std::uint64_t>(total_rounds);
  totals["messages"] = total_messages;
  totals["bytes"] = total_bytes;
  j["totals"] = std::move(totals);
  Json phase_arr = Json::array();
  for (const PhaseReport& p : phases) phase_arr.push_back(phase_to_json(p));
  j["phases"] = std::move(phase_arr);
  j["latency"] = latency_to_json(latency);
  if (timeseries) j["timeseries"] = timeseries_to_json(*timeseries);
  return j;
}

bool write_json_file(const std::string& path, const Json& doc) {
  const std::string text = doc.dump(2);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;  // fclose flushes; a full disk surfaces here
  if (!ok) std::remove(path.c_str());
  return ok;
}

std::string bench_json_path(const std::string& bench_name) {
  return "BENCH_" + bench_name + ".json";
}

bool write_bench_json(const std::string& bench_name, Json fields) {
  fields["bench"] = bench_name;
  return write_json_file(bench_json_path(bench_name), fields);
}

}  // namespace ssps::scenario
