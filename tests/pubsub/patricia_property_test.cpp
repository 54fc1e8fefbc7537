// Property tests over random publication sets: insertion-order
// independence, root-digest equivalence, prefix-harvest correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "pubsub/patricia.hpp"

namespace ssps::pubsub {
namespace {

std::vector<Publication> random_pubs(ssps::Rng& rng, std::size_t count) {
  std::vector<Publication> out;
  std::set<std::string> used;
  while (out.size() < count) {
    std::string payload = "m" + std::to_string(rng.below(1000000));
    if (!used.insert(payload).second) continue;
    out.push_back(Publication{sim::NodeId{rng.between(1, 50)}, std::move(payload)});
  }
  return out;
}

class PatriciaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PatriciaProperty, InsertionOrderDoesNotMatter) {
  ssps::Rng rng(GetParam());
  auto pubs = random_pubs(rng, 64);
  PatriciaTrie a(64);
  for (const auto& p : pubs) a.insert(p);
  rng.shuffle(pubs);
  PatriciaTrie b(64);
  for (const auto& p : pubs) b.insert(p);
  EXPECT_TRUE(a.equal_contents(b));
  EXPECT_EQ(a.root()->hash, b.root()->hash);
  EXPECT_EQ(a.check_invariants(), "");
  EXPECT_EQ(b.check_invariants(), "");
}

TEST_P(PatriciaProperty, RootDigestEqualIffSameSet) {
  ssps::Rng rng(GetParam() + 1000);
  const auto pubs = random_pubs(rng, 40);
  PatriciaTrie a(64);
  PatriciaTrie b(64);
  for (const auto& p : pubs) {
    a.insert(p);
    b.insert(p);
  }
  EXPECT_TRUE(a.equal_contents(b));
  // Differ by exactly one element: digests must differ.
  b.insert(Publication{sim::NodeId{999}, "the-odd-one"});
  EXPECT_FALSE(a.equal_contents(b));
}

TEST_P(PatriciaProperty, AllReturnsEveryInsertedPublicationInKeyOrder) {
  ssps::Rng rng(GetParam() + 2000);
  const auto pubs = random_pubs(rng, 50);
  PatriciaTrie t(64);
  for (const auto& p : pubs) t.insert(p);
  const auto got = t.all();
  ASSERT_EQ(got.size(), pubs.size());
  // Key-sorted.
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(t.key_of(got[i - 1]), t.key_of(got[i]));
  }
  // Same multiset.
  std::set<std::string> want;
  std::set<std::string> have;
  for (const auto& p : pubs) want.emplace(p.payload);
  for (const auto& p : got) have.emplace(p.payload);
  EXPECT_EQ(want, have);
}

TEST_P(PatriciaProperty, CollectPrefixMatchesLinearScan) {
  ssps::Rng rng(GetParam() + 3000);
  const auto pubs = random_pubs(rng, 48);
  PatriciaTrie t(64);
  for (const auto& p : pubs) t.insert(p);
  for (std::size_t plen : {0u, 1u, 2u, 3u, 5u, 8u}) {
    const BitString probe =
        plen == 0 ? BitString{}
                  : BitString::from_uint(rng.below(1ULL << plen), plen);
    const auto got = t.collect_prefix(probe);
    std::size_t expected = 0;
    for (const auto& p : pubs) {
      if (probe.is_prefix_of(t.key_of(p))) ++expected;
    }
    EXPECT_EQ(got.size(), expected) << "prefix=" << probe.to_string();
    for (const auto& p : got) EXPECT_TRUE(probe.is_prefix_of(t.key_of(p)));
  }
}

TEST_P(PatriciaProperty, LocateAgreesWithGroundTruth) {
  ssps::Rng rng(GetParam() + 4000);
  const auto pubs = random_pubs(rng, 32);
  PatriciaTrie t(64);
  std::vector<BitString> keys;
  for (const auto& p : pubs) {
    t.insert(p);
    keys.push_back(t.key_of(p));
  }
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t plen = rng.between(1, 12);
    const BitString probe = BitString::from_uint(rng.below(1ULL << plen), plen);
    const Locate loc = t.locate(probe);
    const std::size_t matching =
        static_cast<std::size_t>(std::count_if(keys.begin(), keys.end(), [&](const BitString& k) {
          return probe.is_prefix_of(k);
        }));
    if (matching == 0) {
      EXPECT_EQ(loc.kind, Locate::Kind::kMiss) << probe.to_string();
    } else {
      EXPECT_NE(loc.kind, Locate::Kind::kMiss) << probe.to_string();
      if (loc.kind == Locate::Kind::kExtension) {
        EXPECT_TRUE(probe.is_prefix_of(loc.node.label));
        EXPECT_GT(loc.node.label.size(), probe.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatriciaProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(PatriciaProperty, LargeTrieStaysConsistent) {
  PatriciaTrie t(128);
  ssps::Rng rng(999);
  for (int i = 0; i < 2000; ++i) {
    t.insert(Publication{sim::NodeId{rng.between(1, 10)}, "k" + std::to_string(i)});
  }
  EXPECT_EQ(t.size(), 2000u);
  EXPECT_EQ(t.check_invariants(), "");
}

}  // namespace
}  // namespace ssps::pubsub
