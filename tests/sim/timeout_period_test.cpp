// Unequal process speeds (Network::set_max_timeout_period): self-
// stabilization must hold under the §1.1 model's asynchrony, where nodes
// act at different rates — not only under lockstep rounds. The tests
// switch the setting on where the trouble starts, and some switch it off
// again mid-run to check that lockstep and unequal stretches interleave.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/chaos.hpp"
#include "core/system.hpp"
#include "pubsub/pubsub_node.hpp"
#include "scenario/execution.hpp"
#include "sched/branch.hpp"
#include "sched/timed.hpp"
#include "sim/network.hpp"

namespace ssps::sim {
namespace {

using core::ChaosOptions;
using core::SkipRingSystem;

/// Installs the timed engine under a named latency profile; "serial"
/// keeps the Network's default serial round scheduler.
void install_profile(Network& net, std::string_view profile) {
  if (profile == "serial") return;
  scenario::ExecutionSpec exec;
  ASSERT_TRUE(scenario::apply_latency_profile(exec, profile));
  net.set_scheduler(std::make_unique<sched::TimedScheduler>(net, exec.timed));
}

struct SpeedCase {
  const char* profile;  // "serial", or a timed latency profile
  Round k;              // max Timeout period
};

std::string case_name(const ::testing::TestParamInfo<SpeedCase>& info) {
  return std::string(info.param.profile) + "_k" + std::to_string(info.param.k);
}

class TimeoutPeriodSweep : public ::testing::TestWithParam<SpeedCase> {};

TEST_P(TimeoutPeriodSweep, CorruptedSystemStabilizesUnderUnequalSpeeds) {
  const auto [profile, k] = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
    install_profile(sys.net(), profile);
    sys.add_subscribers(16);
    ASSERT_TRUE(sys.run_until_legit(1000).has_value());
    ChaosOptions chaos;
    chaos.seed = seed + 1;
    corrupt_system(sys, chaos);

    sys.net().set_max_timeout_period(k);
    bool legit = false;
    for (int block = 0; block < 400 && !legit; ++block) {
      sys.net().run_units(250);
      legit = sys.topology_legit();
    }
    EXPECT_TRUE(legit) << sys.legitimacy_violation();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimeoutPeriodSweep,
                         ::testing::Values(SpeedCase{"serial", 2}, SpeedCase{"serial", 4},
                                           SpeedCase{"serial", 8},
                                           SpeedCase{"serial", 16}, SpeedCase{"lan", 4},
                                           SpeedCase{"wan", 4}, SpeedCase{"geo", 4}),
                         case_name);

/// Counts its Timeouts.
class Ticker final : public Node {
 public:
  void handle(PooledMsg) override {}
  void timeout() override { ++timeouts; }
  int timeouts = 0;
};

TEST(TimeoutPeriod, FixedSeedTimeoutCountsArePinned) {
  // Which nodes are slow, and how slow, is a pure function of (seed,
  // slot, k). Pinning one seed's Timeout counts keeps a change to that
  // hash from silently changing the schedule every test here runs under.
  Network net(2024);
  std::vector<NodeId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(net.spawn<Ticker>());
  net.set_max_timeout_period(4);
  net.run_units(120);
  std::vector<int> counts;
  for (const NodeId id : ids) counts.push_back(net.node_as<Ticker>(id).timeouts);
  EXPECT_EQ(counts, (std::vector<int>{120, 40, 30}));
}

TEST(TimeoutPeriod, EveryEngineSkipsTheSameTimeouts) {
  // The gate sits in the Network's timeout sweep, which every engine's
  // round ends in: serial, parallel, branch and timed runs fire the same
  // Timeouts, before and after switching back to period 1.
  auto counts = [](int engine) {
    Network net(5);
    std::vector<NodeId> ids;
    for (int i = 0; i < 9; ++i) ids.push_back(net.spawn<Ticker>());
    if (engine == 1) net.set_threads(3);
    if (engine == 2) net.set_scheduler(std::make_unique<sched::BranchScheduler>());
    if (engine == 3) {
      net.set_scheduler(std::make_unique<sched::TimedScheduler>(net, TimedConfig{}));
    }
    net.set_max_timeout_period(8);
    net.run_units(40);
    net.set_max_timeout_period(1);
    net.run_units(5);
    std::vector<int> out;
    for (const NodeId id : ids) out.push_back(net.node_as<Ticker>(id).timeouts);
    return out;
  };
  const std::vector<int> serial = counts(0);
  EXPECT_NE(serial, std::vector<int>(9, 45));
  for (int engine = 1; engine <= 3; ++engine) {
    EXPECT_EQ(counts(engine), serial) << "engine " << engine;
  }
}

TEST(TimeoutPeriod, PublicationsConvergeUnderAsynchronyToo) {
  pubsub::PubSubConfig cfg;
  cfg.flooding = false;
  pubsub::PubSubSystem sys(SkipRingSystem::Options{.seed = 31, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(10);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (int i = 0; i < 10; ++i) {
    sys.pubsub(ids[static_cast<std::size_t>(i) % ids.size()])
        .add_local(pubsub::Publication{ids[0], "a" + std::to_string(i)});
  }
  bool done = false;
  sys.net().set_max_timeout_period(4);
  for (int block = 0; block < 400 && !done; ++block) {
    sys.net().run_units(400);
    done = sys.publications_converged();
  }
  EXPECT_TRUE(done);
}

TEST(TimeoutPeriod, MixedSchedulersInterleave) {
  // Alternating unequal-speed and lockstep stretches must not confuse the
  // protocol (both run on the same network state).
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 33, .fd_delay = 0});
  sys.add_subscribers(12);
  ChaosOptions chaos;
  chaos.seed = 34;
  corrupt_system(sys, chaos);
  for (int i = 0; i < 100 && !sys.topology_legit(); ++i) {
    sys.net().set_max_timeout_period(4);
    sys.net().run_units(40);
    sys.net().set_max_timeout_period(1);
    sys.net().run_unit();
  }
  EXPECT_TRUE(sys.topology_legit()) << sys.legitimacy_violation();
}

TEST(TimeoutPeriod, CrashRecoveryUnderAsynchrony) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 35, .fd_delay = 2});
  const auto ids = sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  sys.crash(ids[1]);
  sys.crash(ids[7]);
  bool legit = false;
  for (int block = 0; block < 400 && !legit; ++block) {
    sys.net().set_max_timeout_period(4);
    sys.net().run_units(120);
    sys.net().set_max_timeout_period(1);
    sys.net().run_unit();
    legit = sys.topology_legit();
  }
  EXPECT_TRUE(legit) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 14u);
}

}  // namespace
}  // namespace ssps::sim
