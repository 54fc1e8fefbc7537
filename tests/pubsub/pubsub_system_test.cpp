// System-level publication tests: Theorem 17 (publication convergence),
// Theorem 23 (publication closure), flooding delivery (§4.3), and history
// transfer to late joiners.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/chaos.hpp"
#include "pubsub/pubsub_node.hpp"

namespace ssps::pubsub {
namespace {

struct Case {
  std::size_t n;
  std::size_t pubs;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return "n" + std::to_string(info.param.n) + "_p" + std::to_string(info.param.pubs) +
         "_s" + std::to_string(info.param.seed);
}

class PublicationConvergence : public ::testing::TestWithParam<Case> {};

TEST_P(PublicationConvergence, ScatteredPublicationsMergeWithoutFlooding) {
  // Theorem 17 with the pure anti-entropy path (flooding off): arbitrary
  // initial publication placement merges into the union everywhere.
  const auto [n, pubs, seed] = GetParam();
  PubSubConfig cfg;
  cfg.flooding = false;
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = seed, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(n);
  ASSERT_TRUE(sys.run_until_legit(2000).has_value());
  ssps::Rng rng(seed * 7 + 1);
  for (std::size_t i = 0; i < pubs; ++i) {
    const sim::NodeId at = ids[rng.pick_index(ids)];
    sys.pubsub(at).add_local(Publication{at, "pub" + std::to_string(i)});
  }
  const auto rounds =
      sys.net().run_until([&] { return sys.publications_converged(); },
                          400 + 60 * n);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(sys.distinct_publications(), pubs);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PublicationConvergence,
                         ::testing::Values(Case{2, 6, 1}, Case{4, 10, 2},
                                           Case{8, 20, 3}, Case{16, 30, 4},
                                           Case{16, 1, 5}, Case{24, 40, 6}),
                         case_name);

TEST(PublicationClosure, NoSyncTrafficOnceConverged) {
  // Theorem 23: once all tries agree, CheckTrie elicits no responses.
  PubSubConfig cfg;
  cfg.flooding = false;
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 7, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(12);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (int i = 0; i < 10; ++i) {
    sys.pubsub(ids[0]).add_local(Publication{ids[0], "p" + std::to_string(i)});
  }
  ASSERT_TRUE(
      sys.net().run_until([&] { return sys.publications_converged(); }, 2000));
  sys.net().run_units(3);
  sys.net().metrics().reset();
  const std::size_t window = 30;
  sys.net().run_units(window);
  // Exactly one CheckTrie per node per round, and nothing downstream.
  EXPECT_EQ(sys.net().metrics().sent("CheckTrie"), window * ids.size());
  EXPECT_EQ(sys.net().metrics().sent("CheckAndPublish"), 0u);
  EXPECT_EQ(sys.net().metrics().sent("Publish"), 0u);
  EXPECT_EQ(sys.net().metrics().sent("PublishNew"), 0u);
}

TEST(PublicationConvergence, TriesNeverShrink) {
  // §4.2: publications are never removed. Sample sizes along the run.
  PubSubConfig cfg;
  cfg.flooding = false;
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 9, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(600).has_value());
  ssps::Rng rng(4);
  for (int i = 0; i < 15; ++i) {
    sys.pubsub(ids[rng.pick_index(ids)]).add_local(Publication{ids[0], std::to_string(i)});
  }
  std::vector<std::size_t> last(ids.size(), 0);
  for (int round = 0; round < 150; ++round) {
    sys.net().run_unit();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t now = sys.pubsub(ids[i]).trie().size();
      ASSERT_GE(now, last[i]);
      last[i] = now;
    }
  }
}

TEST(Flooding, DeliversInLogarithmicRounds) {
  for (std::size_t n : {16, 64, 128}) {
    PubSubSystem sys(core::SkipRingSystem::Options{.seed = 11 + n, .fd_delay = 0},
                     PubSubConfig{});
    const auto ids = sys.add_pubsub_subscribers(n);
    ASSERT_TRUE(sys.run_until_legit(4000).has_value());
    sys.pubsub(ids[0]).publish("breaking news");
    const auto rounds =
        sys.net().run_until([&] { return sys.publications_converged(); }, 50);
    ASSERT_TRUE(rounds.has_value()) << "n=" << n;
    // Diameter is <= 2·log2(n); flooding needs about one round per hop.
    EXPECT_LE(*rounds, 2 * static_cast<std::size_t>(std::log2(n)) + 3) << "n=" << n;
  }
}

TEST(Flooding, DuplicatesAreDropped) {
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 13, .fd_delay = 0},
                   PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(16);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  sys.net().metrics().reset();
  sys.pubsub(ids[3]).publish("once");
  sys.net().run_units(20);
  // Every node forwards the publication to its neighbors exactly once:
  // the flood volume is bounded by the number of directed overlay edges
  // (≈ 2 · 2n edges) — not by n², which repeated re-forwarding would give.
  EXPECT_LE(sys.net().metrics().sent("PublishNew"), 6 * 16u);
  EXPECT_TRUE(sys.publications_converged());
}

TEST(Flooding, AntiEntropyRepairsWhatFloodingMissed) {
  // Inject a publication while the overlay is broken (flooding reaches
  // only a fragment), then let the trie sync finish the job — the §4.2
  // "self-stabilizing protocol corrects eventual mistakes of flooding".
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 15, .fd_delay = 0},
                   PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(12);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  // Break most overlay edges, publish into the wreckage.
  core::ChaosOptions chaos;
  chaos.seed = 5;
  chaos.clear_label_pct = 0;
  chaos.random_label_pct = 0;
  chaos.scramble_edges_pct = 90;
  chaos.corrupt_database = false;
  chaos.junk_messages = 0;
  corrupt_system(sys, chaos);
  sys.pubsub(ids[0]).publish("through the storm");
  const auto rounds = sys.net().run_until(
      [&] { return sys.topology_legit() && sys.publications_converged(); }, 4000);
  ASSERT_TRUE(rounds.has_value());
}

TEST(LateJoiner, ReceivesFullHistory) {
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 17, .fd_delay = 0},
                   PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  for (int i = 0; i < 7; ++i) sys.pubsub(ids[0]).publish("old-" + std::to_string(i));
  sys.net().run_units(15);
  const sim::NodeId late = sys.add_pubsub_subscriber();
  const auto rounds = sys.net().run_until(
      [&] { return sys.pubsub(late).trie().size() == 7; }, 1000);
  ASSERT_TRUE(rounds.has_value());
}

TEST(LateJoiner, HistorySurvivesPublisherDeparture) {
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 19, .fd_delay = 0},
                   PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(500).has_value());
  sys.pubsub(ids[2]).publish("legacy");
  sys.net().run_units(15);
  sys.request_unsubscribe(ids[2]);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  const sim::NodeId late = sys.add_pubsub_subscriber();
  const auto rounds =
      sys.net().run_until([&] { return sys.pubsub(late).trie().size() == 1; }, 1000);
  ASSERT_TRUE(rounds.has_value());
}

TEST(Publications, ConvergenceSurvivesCrashes) {
  PubSubConfig cfg;
  cfg.flooding = false;
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 21, .fd_delay = 3}, cfg);
  const auto ids = sys.add_pubsub_subscribers(12);
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  // Scatter pubs, then crash two holders before sync completes. Crucially
  // every publication also lives somewhere else.
  for (int i = 0; i < 6; ++i) {
    sys.pubsub(ids[0]).add_local(Publication{ids[0], "k" + std::to_string(i)});
    sys.pubsub(ids[5]).add_local(Publication{ids[0], "k" + std::to_string(i)});
  }
  sys.net().run_units(2);
  sys.crash(ids[5]);
  const auto rounds = sys.net().run_until(
      [&] { return sys.topology_legit() && sys.publications_converged(); }, 4000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(sys.distinct_publications(), 6u);
}

TEST(Publications, AblationFloodingAloneIsNotSelfStabilizing) {
  // §4.3: "we do not rely on flooding to show convergence of
  // publications" — because flooding alone cannot be: a publication that
  // already exists only on some nodes is never re-flooded, so scattered
  // state stays scattered forever without the trie anti-entropy.
  PubSubConfig cfg;
  cfg.flooding = true;
  cfg.anti_entropy = false;  // the ablation
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 25, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(600).has_value());
  // Scattered pre-existing state (e.g. what a partition left behind).
  sys.pubsub(ids[0]).add_local(Publication{ids[0], "stranded"});
  const auto rounds =
      sys.net().run_until([&] { return sys.publications_converged(); }, 300);
  EXPECT_FALSE(rounds.has_value());  // provably stuck without CheckTrie
  // Turning the same scenario over to the full protocol converges
  // (covered by the PublicationConvergence sweep above).
}

TEST(Publications, AblationFloodingOffStillConvergesFloodingOnFaster) {
  auto run = [](bool flooding) {
    PubSubConfig cfg;
    cfg.flooding = flooding;
    PubSubSystem sys(core::SkipRingSystem::Options{.seed = 23, .fd_delay = 0}, cfg);
    const auto ids = sys.add_pubsub_subscribers(24);
    EXPECT_TRUE(sys.run_until_legit(1500).has_value());
    sys.pubsub(ids[0]).publish("probe");
    const auto rounds =
        sys.net().run_until([&] { return sys.publications_converged(); }, 3000);
    EXPECT_TRUE(rounds.has_value());
    return *rounds;
  };
  const auto with_flooding = run(true);
  const auto without = run(false);
  EXPECT_LT(with_flooding, without);
}

// Every copy of a publication shares the origin's payload body: PublishNew
// floods and anti-entropy Publish batches hand on a reference, and each
// trie stores one. A change that copies payloads again fails here.
class SharedPayload : public ::testing::TestWithParam<bool> {};

TEST_P(SharedPayload, EverySubscriberStoresTheOriginsBytes) {
  PubSubConfig cfg;
  cfg.flooding = GetParam();
  PubSubSystem sys(core::SkipRingSystem::Options{.seed = 31, .fd_delay = 0}, cfg);
  const auto ids = sys.add_pubsub_subscribers(64);
  ASSERT_TRUE(sys.run_until_legit(3000).has_value());
  sys.pubsub(ids[0]).publish(std::string(64, 's'));
  const auto rounds =
      sys.net().run_until([&] { return sys.publications_converged(); }, 4000);
  ASSERT_TRUE(rounds.has_value());
  const std::vector<Publication> at_origin = sys.pubsub(ids[0]).trie().all();
  ASSERT_EQ(at_origin.size(), 1u);
  for (sim::NodeId id : sys.active_ids()) {
    const std::vector<Publication> stored = sys.pubsub(id).trie().all();
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0].payload.data(), at_origin[0].payload.data())
        << "subscriber " << id.value << " holds its own copy";
  }
}

std::string delivery_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "PublishNew" : "PublishBatches";
}

INSTANTIATE_TEST_SUITE_P(FloodingOnAndOff, SharedPayload, ::testing::Bool(),
                         delivery_name);

}  // namespace
}  // namespace ssps::pubsub
