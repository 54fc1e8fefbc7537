// Shared scaffolding for the bench binaries: every binary prints its
// paper-style experiment tables, then writes one BENCH_<name>.json result
// object through the scenario engine's report writer, which
// tools/bench_compare.py gates against bench/baselines/.
#pragma once

#include <chrono>
#include <cstdio>

#include "common/table.hpp"
#include "scenario/report.hpp"

namespace ssps::bench {

/// The JSON object written to BENCH_<name>.json. Experiment printers add
/// their result series here; the harness stamps the name and wall time.
inline scenario::Json& result_json() {
  static scenario::Json doc = scenario::Json::object();
  return doc;
}

/// Monotonic wall clock in seconds, for experiment printers that time
/// coarse regions themselves (cold starts, bootstrap windows).
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `print_fn`, stamps its wall time, and writes BENCH_<name>.json.
/// Exit status 1 when the result file cannot be written.
inline int run_bench_main(const char* name, void (*print_fn)()) {
  const double start = now_seconds();
  print_fn();
  std::fflush(stdout);
  result_json()["experiment_seconds"] = now_seconds() - start;
  if (!scenario::write_bench_json(name, result_json())) {
    std::fprintf(stderr, "could not write %s\n",
                 scenario::bench_json_path(name).c_str());
    return 1;
  }
  return 0;
}

}  // namespace ssps::bench

/// Defines main(): prints the experiment via `print_fn`, then writes
/// BENCH_<name>.json.
#define SSPS_BENCH_MAIN(name, print_fn) \
  int main() { return ::ssps::bench::run_bench_main(name, print_fn); }
