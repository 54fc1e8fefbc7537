// The coordinator's contract at its edges, without a fleet: the request
// checks that run before any process starts, and the splice that puts its
// deploy_* keys into the daemons' agreed report.
#include <sys/wait.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "proc/coordinator.hpp"
#include "scenario/json.hpp"
#include "scenario/runner.hpp"

namespace ssps::proc {
namespace {

TEST(Deploy, FewerThanTwoDaemonsIsRejectedBeforeAnyFork) {
  for (const std::size_t procs : {0u, 1u}) {
    DeployOptions opts;
    opts.choice.name = "steady";
    opts.choice.nodes = 8;
    opts.procs = procs;
    opts.noded_path = "ssps_noded";
    opts.quiet = true;
    EXPECT_EQ(run_deploy(opts), 2) << procs;
    // No child was ever started.
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(Deploy, ReportSpliceEqualsJsonMerge) {
  ScenarioChoice choice;
  choice.name = "steady";
  choice.seed = 3;
  choice.nodes = 12;
  scenario::ScenarioSpec spec;
  ASSERT_TRUE(build_scenario(choice, spec));
  scenario::ScenarioRunner runner(spec);
  const scenario::Json report = runner.run().to_json();

  // The coordinator's keys, in the kinds it writes them.
  scenario::Json deploy = scenario::Json::object();
  deploy["deploy_procs"] = std::uint64_t{3};
  deploy["deploy_transport"] = "tcp-localhost";
  deploy["deploy_rounds"] = std::uint64_t{44};
  deploy["deploy_wall_ms"] = std::uint64_t{150};
  deploy["deploy_rounds_per_sec"] = 293.333333;
  deploy["deploy_relays"] = std::uint64_t{80164};
  deploy["deploy_relay_bytes"] = std::uint64_t{4304002};
  deploy["deploy_respawns"] = std::uint64_t{0};
  scenario::Json merged = report;
  for (const char* key : {"deploy_procs", "deploy_transport", "deploy_rounds",
                          "deploy_wall_ms", "deploy_rounds_per_sec", "deploy_relays",
                          "deploy_relay_bytes", "deploy_respawns"}) {
    merged[key] = deploy[key];
  }
  EXPECT_EQ(scenario::splice_dump(report.dump(2), deploy), merged.dump(2));

  // Keys that sort before and after every report key land at the ends.
  scenario::Json ends = scenario::Json::object();
  ends["aaa"] = 1;
  ends["zzz"] = scenario::Json::array();
  ends["zzz"].push_back("x");
  scenario::Json merged_ends = report;
  merged_ends["aaa"] = ends["aaa"];
  merged_ends["zzz"] = ends["zzz"];
  EXPECT_EQ(scenario::splice_dump(report.dump(2), ends), merged_ends.dump(2));

  // Anything but the dump(2) of a non-empty object is refused.
  for (const char* text : {"", "{}\n", "[\n  1\n]\n", "{\n  \"a\": 1\n}"}) {
    EXPECT_EQ(scenario::splice_dump(text, deploy), std::nullopt) << text;
  }
}

}  // namespace
}  // namespace ssps::proc
