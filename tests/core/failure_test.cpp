// §3.3: unannounced fail-stop crashes. The supervisor's (eventually
// correct) failure detector evicts crashed subscribers; the database
// repair relabels; the survivors re-stabilize to SR(n − f).
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "test_support.hpp"

namespace ssps::core {
namespace {

struct CrashCase {
  std::size_t n;
  std::size_t crashes;
  sim::Round fd_delay;
  std::uint64_t seed;
};

std::string crash_name(const ::testing::TestParamInfo<CrashCase>& info) {
  return "n" + std::to_string(info.param.n) + "_f" + std::to_string(info.param.crashes) +
         "_d" + std::to_string(info.param.fd_delay) + "_s" +
         std::to_string(info.param.seed);
}

class CrashRecovery : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashRecovery, SurvivorsRestabilize) {
  const auto [n, crashes, fd_delay, seed] = GetParam();
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = fd_delay});
  const auto ids = sys.add_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(3000).has_value());
  for (std::size_t i = 0; i < crashes; ++i) {
    sys.crash(ids[i * (n / crashes)]);
  }
  const auto rounds = sys.run_until_legit(3000 + 100 * n);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), n - crashes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashRecovery,
    ::testing::Values(CrashCase{8, 1, 0, 1}, CrashCase{8, 1, 10, 2},
                      CrashCase{16, 4, 0, 3}, CrashCase{16, 4, 5, 4},
                      CrashCase{24, 8, 3, 5}, CrashCase{32, 16, 0, 6},
                      CrashCase{32, 1, 20, 7}),
    crash_name);

TEST(CrashRecovery, CrashDuringStabilizationStillConverges) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 9, .fd_delay = 5});
  const auto ids = sys.add_subscribers(20);
  sys.net().run_units(3);  // not yet converged
  sys.crash(ids[2]);
  sys.crash(ids[7]);
  sys.crash(ids[13]);
  const auto rounds = sys.run_until_legit(4000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 17u);
}

TEST(CrashRecovery, CrashOfMinimumNode) {
  // The minimum holds the ring-closure edge and the most shortcuts; its
  // crash exercises the full relabel path (the top-label node takes "0").
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 10, .fd_delay = 2});
  const auto ids = sys.add_subscribers(12);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (sim::NodeId id : ids) {
    if (sys.subscriber(id).label() == Label::from_index(0)) {
      sys.crash(id);
      break;
    }
  }
  const auto rounds = sys.run_until_legit(4000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 11u);
}

TEST(CrashRecovery, SequentialCrashesWhileHealing) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 11, .fd_delay = 4});
  auto ids = sys.add_subscribers(24);
  ASSERT_TRUE(sys.run_until_legit(1500).has_value());
  for (int wave = 0; wave < 4; ++wave) {
    sys.crash(ids[static_cast<std::size_t>(wave) * 5]);
    sys.net().run_units(6);  // heal a little, crash again
  }
  const auto rounds = sys.run_until_legit(5000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 20u);
}

TEST(CrashRecovery, CrashAndChurnTogether) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 12, .fd_delay = 3});
  auto ids = sys.add_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  sys.crash(ids[0]);
  sys.request_unsubscribe(ids[1]);
  sys.add_subscribers(3);
  const auto rounds = sys.run_until_legit(5000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 16u - 2u + 3u);
}

TEST(CrashRecovery, QueuedUnsubscribeFromCrashedNodeIsHarmless) {
  // Regression: an Unsubscribe sitting in the supervisor's channel while
  // its sender crashes. With a perfect detector, check_labels() evicts the
  // sender during the unsubscribe itself — the lookup must observe the
  // eviction and fall back to the idempotent permission reply rather than
  // dereferencing a stale index entry.
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 5, .fd_delay = 0});
  const auto ids = sys.add_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(3000).has_value());
  const sim::NodeId victim = ids[2];
  sys.net().inject(sys.supervisor_id(),
                   sys.net().pool().make<msg::Unsubscribe>(victim));
  sys.crash(victim);
  const auto rounds = sys.run_until_legit(3000);
  ASSERT_TRUE(rounds.has_value()) << sys.legitimacy_violation();
  EXPECT_EQ(sys.supervisor().size(), 5u);
}

TEST(CrashRecovery, AliveCountExcludesTombstones) {
  // Regression guard for the dense node table: crashed nodes leave
  // tombstone slots behind, and alive_count()/alive_ids() must count only
  // live nodes — the async convergence waits size their step chunks by
  // alive_count(), and the oracle sizes SR(n) by the live population.
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 21, .fd_delay = 0});
  const auto ids = sys.add_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(1500).has_value());
  EXPECT_EQ(sys.net().alive_count(), 9u);  // 8 subscribers + supervisor
  EXPECT_EQ(sys.net().alive_ids().size(), 9u);

  sys.crash(ids[1]);
  sys.crash(ids[4]);
  EXPECT_EQ(sys.net().alive_count(), 7u);
  const auto alive = sys.net().alive_ids();
  EXPECT_EQ(alive.size(), 7u);
  for (sim::NodeId id : alive) {
    EXPECT_TRUE(sys.net().alive(id));
    EXPECT_NE(id, ids[1]);
    EXPECT_NE(id, ids[4]);
  }
  // Tombstones stay dead; fresh spawns append new ids and are counted.
  const sim::NodeId fresh = sys.add_subscriber();
  EXPECT_EQ(sys.net().alive_count(), 8u);
  EXPECT_TRUE(sys.net().alive(fresh));
  EXPECT_FALSE(sys.net().alive(ids[1]));
  ASSERT_TRUE(sys.run_until_legit(3000).has_value());
  EXPECT_EQ(sys.net().alive_count(), 8u);
}

TEST(FailureDetector, NeverSuspectsAliveNodes) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 13, .fd_delay = 0});
  const auto ids = sys.add_subscribers(6);
  sim::FailureDetector fd(sys.net(), 5);
  for (sim::NodeId id : ids) EXPECT_FALSE(fd.suspects(id));
}

TEST(FailureDetector, ReportsAfterConfiguredDelay) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 14, .fd_delay = 0});
  const auto ids = sys.add_subscribers(4);
  sim::FailureDetector fd(sys.net(), 5);
  sys.crash(ids[0]);
  EXPECT_FALSE(fd.suspects(ids[0]));  // within the blind window
  sys.net().run_units(5);
  EXPECT_TRUE(fd.suspects(ids[0]));
}

TEST(FailureDetector, UnknownNodesAreSuspect) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 15, .fd_delay = 0});
  sim::FailureDetector fd(sys.net(), 5);
  EXPECT_TRUE(fd.suspects(sim::NodeId{424242}));
}

TEST(FailureDetector, RaisedDelayStillEvictsReadmittedDeadNode) {
  // Regression: the §3.3 crash-log cursor consumes each crash once. If
  // the detector's delay is RAISED after a crash was consumed, the node
  // is temporarily unsuspected again — and a stale Subscribe arriving in
  // that window re-admits it without marking the labels dirty, so the
  // cursor alone would never evict it once suspicion returns (at system
  // level only the slower GetConfiguration purge path would catch it,
  // and only once some live node queries about the ghost). check_labels
  // now rewinds the cursor when the visible prefix shrinks; this drives
  // a detached SupervisorProtocol directly — no ring traffic, so no
  // purge backstop can mask a broken cursor.
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 16, .fd_delay = 0});
  const auto ids = sys.add_subscribers(4);
  sim::FailureDetector fd(sys.net(), 0);
  testing::CapturingSink sink;
  SupervisorProtocol sup{sim::NodeId{9999}, sink};
  sup.set_failure_detector(&fd);
  for (sim::NodeId id : ids) sup.handle(msg::Subscribe(id));

  const sim::NodeId victim = ids[1];
  sys.crash(victim);
  sys.net().run_unit();  // crash becomes visible at delay 0
  sup.timeout();          // cursor consumes it
  EXPECT_FALSE(sup.label_of(victim).has_value());

  // Raise the delay: the consumed crash drops back out of the visible
  // prefix, so the victim is unsuspected again...
  fd.set_delay(sys.net().round() + 20);
  EXPECT_FALSE(fd.suspects(victim));
  // ...and a stale Subscribe re-admits it without dirtying the labels.
  sup.handle(msg::Subscribe(victim));
  ASSERT_TRUE(sup.label_of(victim).has_value());

  // Once the crash is visible again, the rewound cursor re-consumes it.
  while (!fd.suspects(victim)) sys.net().run_unit();
  sup.timeout();
  EXPECT_FALSE(sup.label_of(victim).has_value());
}

}  // namespace
}  // namespace ssps::core
