// Crash-recovery from periodic snapshots (sim::Network::recover): a
// restarted subscriber restores its possibly-stale snapshot, re-enters
// the ring, and the system re-stabilizes — including when the snapshot
// is corrupted or missing entirely.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pubsub/pubsub_node.hpp"

namespace ssps::pubsub {
namespace {

using sim::NodeId;

PubSubConfig config() {
  PubSubConfig cfg;
  cfg.flooding = false;
  return cfg;
}

/// Converged n-subscriber system with `pubs` publications and periodic
/// snapshots every 5 rounds.
struct Fixture {
  PubSubSystem sys;
  std::vector<NodeId> ids;

  explicit Fixture(std::size_t n, std::size_t pubs, std::uint64_t seed)
      : sys(core::SkipRingSystem::Options{.seed = seed, .fd_delay = 0}, config()) {
    sys.net().enable_snapshots(5);
    ids = sys.add_pubsub_subscribers(n);
    EXPECT_TRUE(sys.run_until_legit(2000).has_value());
    for (std::size_t i = 0; i < pubs; ++i) {
      sys.pubsub(ids[i % ids.size()]).add_local(
          Publication{ids[i % ids.size()], "pub" + std::to_string(i)});
    }
    EXPECT_TRUE(sys.net()
                    .run_until([&] { return sys.publications_converged(); }, 2000)
                    .has_value());
  }

  bool restabilized() {
    return sys.net()
        .run_until(
            [&] { return sys.topology_legit() && sys.publications_converged(); },
            4000)
        .has_value();
  }
};

TEST(Recovery, CrashedSubscriberRecoversFromSnapshotAndRestabilizes) {
  Fixture f(8, 6, 3);
  const NodeId victim = f.ids[2];
  f.sys.crash(victim);
  // Let the failure detector notice and the ring close over the hole —
  // the snapshot the victim will restore is now stale by construction.
  ASSERT_TRUE(f.restabilized());

  ASSERT_TRUE(f.sys.recover_pubsub_subscriber(victim));
  EXPECT_TRUE(f.sys.net().alive(victim));
  ASSERT_TRUE(f.restabilized());
  // The recovered node is a full member again: its trie re-merged to the
  // union, so distinct publications are intact everywhere.
  EXPECT_EQ(f.sys.distinct_publications(), 6u);
}

TEST(Recovery, CorruptedSnapshotFallsBackToFreshStart) {
  Fixture f(8, 6, 5);
  const NodeId victim = f.ids[4];
  f.sys.crash(victim);
  ASSERT_TRUE(f.restabilized());

  // Damage every byte of the stored snapshot. restore_state must reject
  // it (wire-grade total decoding) and report the dirty restart.
  std::vector<std::uint8_t>& snapshot = f.sys.net().mutable_snapshot(victim);
  ASSERT_FALSE(snapshot.empty());
  for (std::uint8_t& b : snapshot) b ^= 0xA5;
  EXPECT_FALSE(f.sys.recover_pubsub_subscriber(victim));

  // A dirty restart is still a restart: the node re-subscribes from
  // scratch and the system converges with it as a member.
  EXPECT_TRUE(f.sys.net().alive(victim));
  ASSERT_TRUE(f.restabilized());
  EXPECT_EQ(f.sys.distinct_publications(), 6u);
}

TEST(Recovery, MissingSnapshotStillRestarts) {
  // Crash before the first snapshot cadence tick: nothing was stored.
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 9, .fd_delay = 0}, config());
  const auto ids = sys.add_pubsub_subscribers(6);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value());
  // Snapshots enabled only now: no node ever serialized state.
  sys.net().enable_snapshots(1000000);
  const NodeId victim = ids[1];
  sys.crash(victim);
  ASSERT_TRUE(sys.run_until_legit(4000).has_value());

  EXPECT_FALSE(sys.recover_pubsub_subscriber(victim));
  EXPECT_TRUE(sys.net().alive(victim));
  ASSERT_TRUE(sys.run_until_legit(4000).has_value());
}

TEST(Recovery, RecoveredNodeKeepsSnapshottedPublications) {
  Fixture f(6, 4, 11);
  const NodeId victim = f.ids[0];
  // Publications the victim held at snapshot time survive the crash
  // locally (no need to re-fetch): publish, let a snapshot happen, crash.
  f.sys.pubsub(victim).add_local(Publication{victim, "survivor"});
  ASSERT_TRUE(f.sys.net()
                  .run_until([&] { return f.sys.publications_converged(); }, 2000)
                  .has_value());
  f.sys.net().run_units(5);  // guarantee a snapshot after convergence
  f.sys.crash(victim);
  ASSERT_TRUE(f.restabilized());

  ASSERT_TRUE(f.sys.recover_pubsub_subscriber(victim));
  // Immediately after restore — before any sync round — the restored trie
  // already holds the snapshotted publication.
  bool found = false;
  for (const Publication& p : f.sys.pubsub(victim).trie().all()) {
    found = found || (p.origin == victim && p.payload == "survivor");
  }
  EXPECT_TRUE(found);
  ASSERT_TRUE(f.restabilized());
  EXPECT_EQ(f.sys.distinct_publications(), 5u);
}

TEST(Recovery, RepeatedCrashRecoverCyclesStayStable) {
  Fixture f(8, 5, 13);
  ssps::Rng rng(99);
  for (int cycle = 0; cycle < 4; ++cycle) {
    const NodeId victim = f.ids[rng.pick_index(f.ids)];
    f.sys.crash(victim);
    ASSERT_TRUE(f.restabilized());
    f.sys.recover_pubsub_subscriber(victim);  // clean or dirty both fine
    ASSERT_TRUE(f.restabilized()) << "cycle " << cycle;
  }
  EXPECT_EQ(f.sys.distinct_publications(), 5u);
}

}  // namespace
}  // namespace ssps::pubsub
