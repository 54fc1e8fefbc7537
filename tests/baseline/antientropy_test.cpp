// Naive full-state anti-entropy: converges like the Patricia sync but
// keeps paying O(|P|) bytes per exchange forever.
#include "baseline/antientropy.hpp"

#include <gtest/gtest.h>

#include "pubsub/pubsub_node.hpp"

namespace ssps::baseline {
namespace {

class NaiveSystem : public core::SkipRingSystem {
 public:
  using core::SkipRingSystem::SkipRingSystem;

  sim::NodeId add_naive() { return net().spawn<NaiveSyncNode>(supervisor_id()); }

  NaiveSyncProtocol& sync(sim::NodeId id) {
    return net().node_as<NaiveSyncNode>(id).sync();
  }

  bool converged(std::size_t expected) {
    for (sim::NodeId id : subscriber_ids()) {
      if (sync(id).size() != expected) return false;
    }
    return true;
  }
};

TEST(NaiveAntiEntropy, ConvergesOnScatteredPublications) {
  NaiveSystem sys(core::SkipRingSystem::Options{.seed = 1, .fd_delay = 0});
  std::vector<sim::NodeId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(sys.add_naive());
  ASSERT_TRUE(sys.run_until_legit(800).has_value());
  for (int i = 0; i < 20; ++i) {
    sys.sync(ids[static_cast<std::size_t>(i) % ids.size()])
        .add_local(pubsub::Publication{ids[0], "p" + std::to_string(i)});
  }
  const auto rounds =
      sys.net().run_until([&] { return sys.converged(20); }, 2000);
  ASSERT_TRUE(rounds.has_value());
}

TEST(NaiveAntiEntropy, DeduplicatesOnMerge) {
  NaiveSystem sys(core::SkipRingSystem::Options{.seed = 2, .fd_delay = 0});
  const auto a = sys.add_naive();
  const auto b = sys.add_naive();
  ASSERT_TRUE(sys.run_until_legit(400).has_value());
  const pubsub::Publication p{a, "shared"};
  sys.sync(a).add_local(p);
  sys.sync(b).add_local(p);
  sys.net().run_units(10);
  EXPECT_EQ(sys.sync(a).size(), 1u);
  EXPECT_EQ(sys.sync(b).size(), 1u);
}

TEST(NaiveAntiEntropy, SteadyStateBytesScaleWithCorpusUnlikePatricia) {
  // The headline contrast (experiment E6): after convergence, FullState
  // keeps shipping the whole corpus; CheckTrie ships one digest.
  const std::size_t n = 8;
  const std::size_t corpus = 50;

  NaiveSystem naive(core::SkipRingSystem::Options{.seed = 3, .fd_delay = 0});
  std::vector<sim::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(naive.add_naive());
  ASSERT_TRUE(naive.run_until_legit(600).has_value());
  for (std::size_t i = 0; i < corpus; ++i) {
    naive.sync(ids[0]).add_local(pubsub::Publication{ids[0], "x" + std::to_string(i)});
  }
  ASSERT_TRUE(naive.net().run_until([&] { return naive.converged(corpus); }, 2000));
  naive.net().metrics().reset();
  naive.net().run_units(20);
  const auto naive_bytes = naive.net().metrics().sent_bytes("FullState");

  pubsub::PubSubConfig cfg;
  cfg.flooding = false;
  pubsub::PubSubSystem smart(core::SkipRingSystem::Options{.seed = 3, .fd_delay = 0},
                             cfg);
  const auto sids = smart.add_pubsub_subscribers(n);
  ASSERT_TRUE(smart.run_until_legit(600).has_value());
  for (std::size_t i = 0; i < corpus; ++i) {
    smart.pubsub(sids[0]).add_local(pubsub::Publication{sids[0], "x" + std::to_string(i)});
  }
  ASSERT_TRUE(smart.net().run_until(
      [&] { return smart.publications_converged(); }, 2000));
  smart.net().metrics().reset();
  smart.net().run_units(20);
  const auto smart_bytes = smart.net().metrics().sent_bytes("CheckTrie") +
                           smart.net().metrics().sent_bytes("CheckAndPublish") +
                           smart.net().metrics().sent_bytes("Publish");

  EXPECT_GT(naive_bytes, 5 * smart_bytes);
}

}  // namespace
}  // namespace ssps::baseline
