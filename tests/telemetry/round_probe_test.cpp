// Tests for the per-round sampling ring (src/telemetry/round_probe.hpp).
#include "telemetry/round_probe.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "sim/network.hpp"

namespace ssps::telemetry {
namespace {

RoundSample sample_for(sim::Round r) {
  RoundSample s;
  s.round = r;
  s.delivered = r * 10;
  return s;
}

TEST(RoundProbe, KeepsEverythingUnderCapacity) {
  RoundProbe probe(8);
  for (sim::Round r = 1; r <= 5; ++r) probe.push(sample_for(r));
  EXPECT_EQ(probe.size(), 5u);
  EXPECT_EQ(probe.dropped(), 0u);
  EXPECT_EQ(probe.at(0).round, 1u);
  EXPECT_EQ(probe.at(4).round, 5u);
}

TEST(RoundProbe, RingEvictsOldestFirst) {
  RoundProbe probe(4);
  for (sim::Round r = 1; r <= 10; ++r) probe.push(sample_for(r));
  EXPECT_EQ(probe.size(), 4u);
  EXPECT_EQ(probe.dropped(), 6u);
  // The retained window is the last 4 rounds, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(probe.at(i).round, 7u + i);
    EXPECT_EQ(probe.at(i).delivered, (7u + i) * 10);
  }
}

TEST(RoundProbe, EnricherRunsBeforeStorage) {
  RoundProbe probe(4);
  probe.set_enricher([](RoundSample& s) { s.nonconforming = s.round + 100; });
  probe.push(sample_for(3));
  EXPECT_EQ(probe.at(0).nonconforming, 103u);
}

TEST(RoundProbe, ClearEmptiesTheRing) {
  RoundProbe probe(2);
  for (sim::Round r = 1; r <= 5; ++r) probe.push(sample_for(r));
  probe.clear();
  EXPECT_TRUE(probe.empty());
  EXPECT_EQ(probe.dropped(), 0u);
  probe.push(sample_for(9));
  EXPECT_EQ(probe.at(0).round, 9u);
}

TEST(RoundProbe, NetworkSamplesEveryRound) {
  core::SkipRingSystem sys(
      core::SkipRingSystem::Options{.seed = 5, .fd_delay = 0});
  sys.add_subscribers(6);
  RoundProbe probe(64);
  sys.net().attach_round_probe(&probe);
  sys.net().run_units(10);
  ASSERT_EQ(probe.size(), 10u);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(probe.at(i).round, i + 1);  // clock reads post-increment
    EXPECT_EQ(probe.at(i).alive, 7u);     // 6 subscribers + supervisor
  }
  // The overlay is still bootstrapping: traffic and timeouts are nonzero.
  EXPECT_GT(probe.at(2).delivered, 0u);
  EXPECT_GT(probe.at(2).timeouts, 0u);
  sys.net().attach_round_probe(nullptr);
  sys.net().run_units(1);
  EXPECT_EQ(probe.size(), 10u);  // detached: no further samples
}

}  // namespace
}  // namespace ssps::telemetry
