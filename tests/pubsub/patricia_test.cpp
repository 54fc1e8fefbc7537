// Patricia trie structure tests, including the exact Figure 2 layout.
#include "pubsub/patricia.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"

namespace ssps::pubsub {
namespace {

/// A trie over tiny 3-bit keys where we control keys directly: Figure 2
/// uses keys 000, 010, 100, 101. We reproduce those keys by probing
/// payloads until h̄_3 hits the wanted key (tests only).
class FigureTwoTrie {
 public:
  FigureTwoTrie() : trie_(3) {}

  Publication pub_with_key(const std::string& key) {
    for (std::uint64_t salt = 0;; ++salt) {
      Publication p{sim::NodeId{1}, "p" + std::to_string(salt)};
      if (trie_.key_of(p).to_string() == key) return p;
    }
  }

  PatriciaTrie trie_;
};

TEST(Patricia, EmptyTrie) {
  PatriciaTrie t(8);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.root().has_value());
  EXPECT_EQ(t.locate(BitString::from_string("0")).kind, Locate::Kind::kMiss);
  EXPECT_TRUE(t.all().empty());
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(Patricia, KeysEqualKeyOfAllInKeyOrder) {
  EXPECT_TRUE(PatriciaTrie(64).keys().empty());
  for (std::size_t m : {64u, 130u}) {  // inline and overflow BitStrings
    PatriciaTrie t(m);
    for (std::uint64_t i = 0; i < 200; ++i) {
      t.insert(Publication{sim::NodeId{i % 7}, "k" + std::to_string(i)});
    }
    std::vector<BitString> expect;
    for (const Publication& p : t.all()) expect.push_back(t.key_of(p));
    EXPECT_EQ(t.keys(), expect);
    EXPECT_TRUE(std::is_sorted(expect.begin(), expect.end()));
  }
}

TEST(Patricia, SingleLeafIsRoot) {
  PatriciaTrie t(64);
  const Publication p{sim::NodeId{1}, "only"};
  EXPECT_TRUE(t.insert(p));
  EXPECT_EQ(t.size(), 1u);
  ASSERT_TRUE(t.root().has_value());
  EXPECT_EQ(t.root()->label, t.key_of(p));
  EXPECT_EQ(t.root()->hash, hash_label(t.key_of(p)));
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(Patricia, DuplicateInsertReturnsFalse) {
  PatriciaTrie t(64);
  const Publication p{sim::NodeId{1}, "dup"};
  EXPECT_TRUE(t.insert(p));
  EXPECT_FALSE(t.insert(p));
  EXPECT_EQ(t.size(), 1u);
}

TEST(Patricia, InsertMaintainsInvariantsIncrementally) {
  PatriciaTrie t(64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.insert(Publication{sim::NodeId{3}, "pub" + std::to_string(i)}));
    ASSERT_EQ(t.check_invariants(), "") << "after insert " << i;
  }
  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(t.all().size(), 64u);
}

TEST(Patricia, ContainsAfterInsert) {
  PatriciaTrie t(64);
  std::vector<Publication> pubs;
  for (int i = 0; i < 20; ++i) {
    pubs.push_back(Publication{sim::NodeId{static_cast<std::uint64_t>(i + 1)},
                               "payload" + std::to_string(i)});
    t.insert(pubs.back());
  }
  for (const auto& p : pubs) EXPECT_TRUE(t.contains(p));
  EXPECT_FALSE(t.contains(Publication{sim::NodeId{99}, "absent"}));
}

TEST(Patricia, FigureTwoStructure) {
  // Subscriber u of Figure 2 holds P1 = 000, P2 = 010, P3 = 100, P4 = 101.
  FigureTwoTrie fx;
  const Publication p1 = fx.pub_with_key("000");
  const Publication p2 = fx.pub_with_key("010");
  const Publication p3 = fx.pub_with_key("100");
  const Publication p4 = fx.pub_with_key("101");
  PatriciaTrie& u = fx.trie_;
  ASSERT_TRUE(u.insert(p1));
  ASSERT_TRUE(u.insert(p2));
  ASSERT_TRUE(u.insert(p3));
  ASSERT_TRUE(u.insert(p4));
  ASSERT_EQ(u.check_invariants(), "");

  // Root: label ⊥ (empty), hash h(h(h(P1)∘h(P2)) ∘ h(h(P3)∘h(P4))).
  ASSERT_TRUE(u.root().has_value());
  EXPECT_EQ(u.root()->label.size(), 0u);
  const Digest h_p1 = hash_label(BitString::from_string("000"));
  const Digest h_p2 = hash_label(BitString::from_string("010"));
  const Digest h_p3 = hash_label(BitString::from_string("100"));
  const Digest h_p4 = hash_label(BitString::from_string("101"));
  const Digest left = hash_children(h_p1, h_p2);
  const Digest right = hash_children(h_p3, h_p4);
  EXPECT_EQ(u.root()->hash, hash_children(left, right));

  // Inner node "0" with children the P1/P2 leaves.
  const Locate zero = u.locate(BitString::from_string("0"));
  ASSERT_EQ(zero.kind, Locate::Kind::kExact);
  EXPECT_FALSE(zero.is_leaf);
  EXPECT_EQ(zero.node.hash, left);
  ASSERT_EQ(zero.children.size(), 2u);
  EXPECT_EQ(zero.children[0].label.to_string(), "000");
  EXPECT_EQ(zero.children[1].label.to_string(), "010");

  // Inner node "10" with children P3/P4.
  const Locate ten = u.locate(BitString::from_string("10"));
  ASSERT_EQ(ten.kind, Locate::Kind::kExact);
  EXPECT_EQ(ten.node.hash, right);
}

TEST(Patricia, FigureTwoSubscriberVHasCompressedEdge) {
  // Subscriber v holds only P1, P2, P3: the right subtrie is the single
  // leaf "100" (path compression), so locate("10") is an extension case.
  FigureTwoTrie fx;
  PatriciaTrie& v = fx.trie_;
  v.insert(fx.pub_with_key("000"));
  v.insert(fx.pub_with_key("010"));
  v.insert(fx.pub_with_key("100"));
  const Locate ten = v.locate(BitString::from_string("10"));
  ASSERT_EQ(ten.kind, Locate::Kind::kExtension);
  EXPECT_EQ(ten.node.label.to_string(), "100");
  EXPECT_TRUE(ten.is_leaf);
}

TEST(Patricia, LocateThreeCases) {
  FigureTwoTrie fx;
  PatriciaTrie& t = fx.trie_;
  t.insert(fx.pub_with_key("000"));
  t.insert(fx.pub_with_key("010"));
  // Exact inner.
  EXPECT_EQ(t.locate(BitString::from_string("0")).kind, Locate::Kind::kExact);
  // Exact leaf.
  const Locate leaf = t.locate(BitString::from_string("000"));
  EXPECT_EQ(leaf.kind, Locate::Kind::kExact);
  EXPECT_TRUE(leaf.is_leaf);
  // Extension: the empty probe extends to the root node "0".
  const Locate ext = t.locate(BitString{});
  EXPECT_EQ(ext.kind, Locate::Kind::kExtension);
  EXPECT_EQ(ext.node.label.to_string(), "0");
  // Miss: nothing under "1".
  EXPECT_EQ(t.locate(BitString::from_string("1")).kind, Locate::Kind::kMiss);
  // Miss: divergence inside a compressed edge ("001" vs leaf "000").
  EXPECT_EQ(t.locate(BitString::from_string("001")).kind, Locate::Kind::kMiss);
}

TEST(Patricia, CollectPrefix) {
  FigureTwoTrie fx;
  PatriciaTrie& t = fx.trie_;
  const Publication p1 = fx.pub_with_key("000");
  const Publication p2 = fx.pub_with_key("010");
  const Publication p3 = fx.pub_with_key("100");
  t.insert(p1);
  t.insert(p2);
  t.insert(p3);
  EXPECT_EQ(t.collect_prefix(BitString::from_string("0")).size(), 2u);
  EXPECT_EQ(t.collect_prefix(BitString::from_string("1")).size(), 1u);
  EXPECT_EQ(t.collect_prefix(BitString{}).size(), 3u);
  EXPECT_EQ(t.collect_prefix(BitString::from_string("11")).size(), 0u);
  const auto zero_zero = t.collect_prefix(BitString::from_string("00"));
  ASSERT_EQ(zero_zero.size(), 1u);
  EXPECT_EQ(zero_zero[0], p1);
}

TEST(Patricia, CopyIsDeepAndEqual) {
  PatriciaTrie a(64);
  for (int i = 0; i < 10; ++i) a.insert(Publication{sim::NodeId{1}, std::to_string(i)});
  PatriciaTrie b = a;
  EXPECT_TRUE(a.equal_contents(b));
  b.insert(Publication{sim::NodeId{1}, "extra"});
  EXPECT_FALSE(a.equal_contents(b));
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(b.size(), 11u);
  EXPECT_EQ(b.check_invariants(), "");
}

TEST(Patricia, RootHashChangesWithEveryInsert) {
  PatriciaTrie t(64);
  t.insert(Publication{sim::NodeId{1}, "first"});
  Digest prev = t.root()->hash;
  for (int i = 0; i < 20; ++i) {
    t.insert(Publication{sim::NodeId{1}, "n" + std::to_string(i)});
    ASSERT_NE(t.root()->hash, prev);
    prev = t.root()->hash;
  }
}

// The payload memo: a digest sits only in a body keyed from its own bytes,
// and is offered only for the origin it was keyed for.

/// `len` random bytes (any value, NULs included).
std::string random_bytes(ssps::Rng& rng, std::size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.next());
  return out;
}

/// Lengths around the SHA-256 block and padding boundaries: with the 8-byte
/// origin, 55 and 56 bytes straddle the one-block limit and 64 fills it.
constexpr std::size_t kPayloadLengths[] = {0, 1, 55, 56, 64, 300};

TEST(PayloadMemo, KeyedBodyCarriesTheDigestOfItsOwnBytes) {
  ssps::Rng rng(41);
  for (std::size_t len : kPayloadLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      const sim::NodeId origin{rng.next() | 1};
      const std::string bytes = random_bytes(rng, len);
      const Payload body = Payload::keyed(origin, bytes);
      EXPECT_EQ(body.view(), bytes);
      EXPECT_EQ(body.digest_for(origin), publication_digest(origin, bytes));
    }
  }
}

TEST(PayloadMemo, DigestIsOfferedForNoOtherOrigin) {
  ssps::Rng rng(43);
  for (std::size_t len : kPayloadLengths) {
    const sim::NodeId origin{rng.next() | 1};
    const Payload body = Payload::keyed(origin, random_bytes(rng, len));
    EXPECT_FALSE(body.digest_for(sim::NodeId::null()).has_value());
    EXPECT_FALSE(body.digest_for(sim::NodeId{origin.value - 1}).has_value());
    EXPECT_FALSE(body.digest_for(sim::NodeId{origin.value + 1}).has_value());
    EXPECT_FALSE(body.digest_for(sim::NodeId{origin.value ^ (1ULL << 63)}).has_value());
  }
}

TEST(PayloadMemo, KeyOfEqualsPublicationKeyKeyedOrNotAndAfterReassignment) {
  ssps::Rng rng(47);
  for (std::size_t m : {1u, 64u, 256u}) {
    const PatriciaTrie t(m);
    for (std::size_t len : kPayloadLengths) {
      const sim::NodeId origin{rng.next() | 1};
      const std::string bytes = random_bytes(rng, len);
      const Publication keyed{origin, Payload::keyed(origin, bytes)};
      const Publication plain{origin, bytes};
      for (const Publication& p : {keyed, plain}) {
        EXPECT_EQ(t.key_of(p), publication_key(p.origin, p.payload, m));
        Publication moved = p;
        moved.origin = sim::NodeId{origin.value + 1};
        EXPECT_EQ(t.key_of(moved), publication_key(moved.origin, moved.payload, m));
        Publication rewritten = p;
        rewritten.payload = random_bytes(rng, len + 1);
        EXPECT_EQ(t.key_of(rewritten),
                  publication_key(rewritten.origin, rewritten.payload, m));
      }
    }
  }
}

TEST(PayloadMemo, OnlyKeyedPlacesADigestInABody) {
  // No constructor takes a digest or an origin: keyed() is the only way in.
  static_assert(!std::is_constructible_v<Payload, std::string, Digest>);
  static_assert(!std::is_constructible_v<Payload, sim::NodeId, std::string>);
  static_assert(!std::is_constructible_v<Payload, sim::NodeId, std::string, Digest>);
  const sim::NodeId origin{5};
  for (const Payload& body : {Payload(), Payload("abc"), Payload(std::string("abc"))}) {
    EXPECT_FALSE(body.digest_for(origin).has_value());
    EXPECT_FALSE(body.digest_for(sim::NodeId::null()).has_value());
  }
  // Copies, moves and assignments share the keyed body, bytes and digest
  // together; assigning new bytes replaces the body with an unkeyed one.
  const Payload keyed = Payload::keyed(origin, "abc");
  Payload copy = keyed;
  Payload assigned;
  assigned = keyed;
  Payload source = keyed;
  Payload moved = std::move(source);
  for (const Payload* body : {&copy, &assigned, &moved}) {
    EXPECT_EQ(body->data(), keyed.data());
    EXPECT_EQ(body->digest_for(origin), publication_digest(origin, body->view()));
  }
  copy = "xyz";
  assigned = std::string("xyz");
  EXPECT_EQ(copy.view(), "xyz");
  EXPECT_FALSE(copy.digest_for(origin).has_value());
  EXPECT_FALSE(assigned.digest_for(origin).has_value());
  EXPECT_EQ(keyed.digest_for(origin), publication_digest(origin, "abc"));
}

TEST(PayloadMemo, EqualityIsByBytes) {
  const sim::NodeId origin{9};
  EXPECT_EQ(Payload::keyed(origin, "same"), Payload("same"));
  EXPECT_EQ(Payload(), Payload(""));
  EXPECT_NE(Payload::keyed(origin, "same"), Payload::keyed(origin, "other"));
  const Publication keyed{origin, Payload::keyed(origin, "p")};
  EXPECT_EQ(keyed, (Publication{origin, "p"}));
}

}  // namespace
}  // namespace ssps::pubsub
