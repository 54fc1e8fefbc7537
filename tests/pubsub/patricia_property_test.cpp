// Property tests over random publication sets at key lengths m that end
// inside, at and just past word boundaries: insertion-order independence,
// root-digest equivalence, duplicate inserts, and locate / collect_prefix
// against a linear scan of the keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

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

/// The summary of the subtrie holding exactly `keys` (sorted, distinct,
/// non-empty), computed from the keys alone: the label is their longest
/// common prefix, a single key hashes as a leaf, and more than one split at
/// the bit after that prefix (Figure 2's Merkle rule).
NodeSummary reference_summary(const std::vector<BitString>& keys) {
  if (keys.size() == 1) return NodeSummary{keys.front(), hash_label(keys.front())};
  const std::size_t lcp = keys.front().common_prefix_len(keys.back());
  std::vector<BitString> zero;
  std::vector<BitString> one;
  for (const BitString& k : keys) (k.bit(lcp) ? one : zero).push_back(k);
  const NodeSummary left = reference_summary(zero);
  const NodeSummary right = reference_summary(one);
  return NodeSummary{keys.front().prefix(lcp), hash_children(left.hash, right.hash)};
}

/// Checks locate() and collect_prefix() for `probe` against a linear scan
/// of `keys` (every key of `t`, sorted).
void expect_matches_scan(const PatriciaTrie& t, const std::vector<BitString>& keys,
                         const BitString& probe) {
  std::vector<BitString> under;
  for (const BitString& k : keys) {
    if (probe.is_prefix_of(k)) under.push_back(k);
  }
  std::vector<BitString> collected;
  for (const Publication& p : t.collect_prefix(probe)) collected.push_back(t.key_of(p));
  EXPECT_EQ(collected, under) << "collect_prefix " << probe.to_string();

  const Locate loc = t.locate(probe);
  if (under.empty()) {
    EXPECT_EQ(loc.kind, Locate::Kind::kMiss) << probe.to_string();
    return;
  }
  const NodeSummary want = reference_summary(under);
  EXPECT_EQ(loc.node, want) << probe.to_string();
  EXPECT_EQ(loc.is_leaf, under.size() == 1) << probe.to_string();
  if (want.label.size() > probe.size()) {
    EXPECT_EQ(loc.kind, Locate::Kind::kExtension) << probe.to_string();
    EXPECT_TRUE(loc.children.empty());
    return;
  }
  EXPECT_EQ(loc.kind, Locate::Kind::kExact) << probe.to_string();
  if (loc.is_leaf) {
    EXPECT_TRUE(loc.children.empty());
    return;
  }
  std::vector<BitString> zero;
  std::vector<BitString> one;
  for (const BitString& k : under) (k.bit(probe.size()) ? one : zero).push_back(k);
  ASSERT_EQ(loc.children.size(), 2u) << probe.to_string();
  EXPECT_EQ(loc.children[0], reference_summary(zero)) << probe.to_string();
  EXPECT_EQ(loc.children[1], reference_summary(one)) << probe.to_string();
}

/// (seed, m). Each m ends inside a word, on a word boundary or one bit past
/// one.
class PatriciaProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
 protected:
  std::uint64_t seed() const { return std::get<0>(GetParam()); }
  std::size_t m() const { return std::get<1>(GetParam()); }
};

using ::testing::Combine;
using ::testing::ValuesIn;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr std::size_t kKeyBits[] = {33, 64, 65, 128, 129, 256};

std::string case_name(const ::testing::TestParamInfo<PatriciaProperty::ParamType>& info) {
  const auto [seed, m] = info.param;
  return "seed" + std::to_string(seed) + "_m" + std::to_string(m);
}

TEST_P(PatriciaProperty, InsertionOrderDoesNotMatter) {
  ssps::Rng rng(seed());
  auto pubs = random_pubs(rng, 64);
  PatriciaTrie a(m());
  for (const auto& p : pubs) a.insert(p);
  rng.shuffle(pubs);
  PatriciaTrie b(m());
  for (const auto& p : pubs) b.insert(p);
  EXPECT_TRUE(a.equal_contents(b));
  EXPECT_EQ(a.root()->hash, b.root()->hash);
  EXPECT_EQ(a.check_invariants(), "");
  EXPECT_EQ(b.check_invariants(), "");
}

TEST_P(PatriciaProperty, RootDigestEqualIffSameSet) {
  ssps::Rng rng(seed() + 1000);
  const auto pubs = random_pubs(rng, 40);
  PatriciaTrie a(m());
  PatriciaTrie b(m());
  for (const auto& p : pubs) {
    a.insert(p);
    b.insert(p);
  }
  EXPECT_TRUE(a.equal_contents(b));
  // Differ by exactly one element: digests must differ.
  b.insert(Publication{sim::NodeId{999}, "the-odd-one"});
  EXPECT_FALSE(a.equal_contents(b));
}

TEST_P(PatriciaProperty, ReinsertingEveryPublicationChangesNothing) {
  ssps::Rng rng(seed() + 5000);
  const auto pubs = random_pubs(rng, 48);
  PatriciaTrie t(m());
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    ASSERT_TRUE(t.insert(pubs[i]));
    const Digest root = t.root()->hash;
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_FALSE(t.insert(pubs[j])) << "publication " << j << " after " << i;
    }
    ASSERT_EQ(t.size(), i + 1);
    ASSERT_EQ(t.root()->hash, root) << "after " << i;
  }
  EXPECT_EQ(t.check_invariants(), "");
}

TEST_P(PatriciaProperty, AllReturnsEveryInsertedPublicationInKeyOrder) {
  ssps::Rng rng(seed() + 2000);
  const auto pubs = random_pubs(rng, 50);
  PatriciaTrie t(m());
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

TEST_P(PatriciaProperty, LookupsMatchALinearScan) {
  ssps::Rng rng(seed() + 3000);
  const auto pubs = random_pubs(rng, 32);
  PatriciaTrie t(m());
  std::vector<BitString> keys;
  for (const auto& p : pubs) {
    t.insert(p);
    keys.push_back(t.key_of(p));
  }
  std::sort(keys.begin(), keys.end());
  // Every prefix of every key, and the same prefix with its last bit
  // flipped.
  for (const BitString& key : keys) {
    for (std::size_t len = 0; len <= m(); ++len) {
      const BitString prefix = key.prefix(len);
      expect_matches_scan(t, keys, prefix);
      if (len > 0) {
        const BitString flipped = prefix.prefix(len - 1).with_bit(!prefix.bit(len - 1));
        expect_matches_scan(t, keys, flipped);
      }
    }
  }
  // Random probes of length 0 to m + 8; none longer than m is found.
  for (int trial = 0; trial < 400; ++trial) {
    BitString probe;
    const std::size_t len = rng.below(m() + 9);
    for (std::size_t i = 0; i < len; ++i) probe.push_back(rng.chance(1, 2));
    expect_matches_scan(t, keys, probe);
    if (len > m()) {
      EXPECT_EQ(t.locate(probe).kind, Locate::Kind::kMiss);
      EXPECT_TRUE(t.collect_prefix(probe).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatriciaProperty,
                         Combine(ValuesIn(kSeeds), ValuesIn(kKeyBits)), case_name);

TEST(PatriciaProperty, LargeTrieStaysConsistent) {
  PatriciaTrie t(128);
  ssps::Rng rng(999);
  for (int i = 0; i < 2000; ++i) {
    t.insert(Publication{sim::NodeId{rng.between(1, 10)}, "k" + std::to_string(i)});
  }
  EXPECT_EQ(t.size(), 2000u);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(PatriciaProperty, KnownAnswers) {
  // Root digests of one fixed 64-publication trie, recorded from the
  // pointer-node trie this layout replaced: a layout change must not move
  // a single digest.
  const std::pair<std::size_t, const char*> answers[] = {
      {64, "23f8c533e78a32d8658c8fc85b785e445eba22b6548410947731c8fb83aa1b13"},
      {256, "c9e923f67c19fdd9bc2fca3ecf9701ba2b1992f1694788c48eb5321d35b52332"},
  };
  for (const auto& [m, hex] : answers) {
    PatriciaTrie t(m);
    for (std::uint64_t i = 0; i < 64; ++i) {
      t.insert(Publication{sim::NodeId{i % 5 + 1}, "known-answer-" + std::to_string(i)});
    }
    ASSERT_EQ(t.size(), 64u);
    EXPECT_EQ(to_hex(t.root()->hash), hex) << "m = " << m;
  }
}

}  // namespace
}  // namespace ssps::pubsub
