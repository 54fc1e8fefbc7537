// Merkle-hashed Patricia trie over publication keys (§4.2, Figure 2).
//
// Leaves store publications under their m-bit keys h̄_m(origin, payload);
// inner nodes have exactly two children and carry the longest common
// prefix of their subtrie as label. Every node carries a digest:
//   leaf  t: t.hash = h(t.label)
//   inner t: t.hash = h(c1(t).hash ∘ c2(t).hash)      (per Figure 2)
// Equal root digests ⇔ equal publication sets (under collision
// resistance), which is what the CheckTrie anti-entropy exploits.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/hash.hpp"

namespace ssps::pubsub {

/// A publication's payload bytes as one immutable body that every copy
/// shares: flooded PublishNew copies, Publish batches and trie leaves hold a
/// reference, never their own string. A body built by keyed() also carries
/// publication_digest(origin, bytes), computed there from its own bytes;
/// every other body (from a string: decoded off the wire, restored from a
/// snapshot, injected, or built in tests) carries none.
class Payload {
 public:
  Payload() = default;
  Payload(std::string bytes)  // NOLINT
      : body_(std::make_shared<const Body>(Body{std::move(bytes), {}, std::nullopt})) {}
  Payload(const char* bytes) : Payload(std::string(bytes)) {}  // NOLINT

  /// A body keyed for `origin`: the only way a digest enters a body.
  static Payload keyed(sim::NodeId origin, std::string bytes);

  std::string_view view() const {
    return body_ ? std::string_view(body_->bytes) : std::string_view("", 0);
  }
  operator std::string_view() const { return view(); }  // NOLINT
  const char* data() const { return view().data(); }
  std::size_t size() const { return view().size(); }

  /// publication_digest(origin, bytes) if this body was keyed for exactly
  /// `origin`; nullopt otherwise, so a caller that pairs the body with any
  /// other origin hashes afresh.
  std::optional<Digest> digest_for(sim::NodeId origin) const {
    if (!body_ || !body_->digest || body_->origin != origin) return std::nullopt;
    return body_->digest;
  }

  /// Byte equality; whether either side is keyed does not matter.
  bool operator==(const Payload& other) const {
    return body_ == other.body_ || view() == other.view();
  }

 private:
  struct Body {
    std::string bytes;
    sim::NodeId origin;
    std::optional<Digest> digest;  ///< publication_digest(origin, bytes)
  };

  explicit Payload(std::shared_ptr<const Body> body) : body_(std::move(body)) {}

  std::shared_ptr<const Body> body_;
};

/// One publication: originator + opaque payload. Copying it copies a
/// reference to the shared payload body. The key h̄_m(origin, payload) is
/// derived, never sent; key_of() takes it from the body's digest only when
/// the body was keyed for this very origin, and hashes otherwise.
struct Publication {
  sim::NodeId origin;
  Payload payload;
  /// Round the publication was published in — telemetry metadata, not
  /// identity and not wire data: delivery-latency tracking reads
  /// `deliver_round - born` when a copy first reaches a node (the trie
  /// preserves the stamp through replication, so every copy carries the
  /// origin round).
  sim::Round born = 0;

  /// Identity is (origin, payload) only; `born` never distinguishes two
  /// publications.
  bool operator==(const Publication& other) const {
    return origin == other.origin && payload == other.payload;
  }
};

/// A (label, hash) pair as shipped inside CheckTrie messages. Sending a
/// node means sending exactly these two fields (§4.2).
struct NodeSummary {
  BitString label;
  Digest hash;

  bool operator==(const NodeSummary&) const = default;
};

/// Result of locating a label in the trie (the three cases of CheckTrie).
struct Locate {
  enum class Kind {
    kExact,      ///< node with exactly this label exists
    kExtension,  ///< no exact node, but a minimal node whose label extends it
    kMiss,       ///< no key under this label at all
  };
  Kind kind = Kind::kMiss;
  /// For kExact: the node. For kExtension: the minimal extension c.
  NodeSummary node;
  bool is_leaf = false;
  /// For kExact inner nodes: the two child summaries.
  std::vector<NodeSummary> children;
};

/// The per-subscriber publication store v.T.
///
/// A trie lives in four arrays rather than one heap node per trie node.
/// Node i has a 16-byte Link and a digest; node 0 is the root. Leaf j
/// stores its key as ⌈m/64⌉ words (BitString's word layout) beside its
/// Publication. An inner node keeps only its label's bit length: the label
/// is a prefix of every key below it, so its bits are read off the key of
/// one leaf below (the PATRICIA skip). A descent therefore tests one key
/// bit per inner node and compares a whole key once, at the node it stops
/// at. Labels cross the trie's edge as BitStrings (NodeSummary, probes).
class PatriciaTrie {
 public:
  /// `key_bits` = m, the fixed key length all publications share.
  explicit PatriciaTrie(std::size_t key_bits = 64);

  std::size_t key_bits() const { return key_bits_; }

  /// Inserts a publication (key derived via h̄_m). Returns false if it was
  /// already present. Publications are never removed (§4.2 model).
  bool insert(const Publication& p);

  /// Derives the key of `p` under this trie's m, from the payload's digest
  /// when the body was keyed for `p.origin`, else by hashing.
  BitString key_of(const Publication& p) const;

  std::size_t size() const { return pubs_.size(); }
  bool empty() const { return pubs_.empty(); }

  /// Root summary; nullopt for the empty trie.
  std::optional<NodeSummary> root() const;

  /// The three-way CheckTrie lookup for a received (label, hash) tuple.
  Locate locate(const BitString& label) const;

  /// All publications whose key starts with `prefix`, in key order.
  std::vector<Publication> collect_prefix(const BitString& prefix) const;

  /// All publications, in key order.
  std::vector<Publication> all() const;

  /// The keys of all publications, in key order: the stored leaf keys,
  /// which insert() derives with key_of(). Equals key_of() over all()
  /// without hashing anything.
  std::vector<BitString> keys() const;

  /// Structural equality via root digests (collision-resistant).
  bool equal_contents(const PatriciaTrie& other) const;

  /// Invariant checker (tests): labels are prefixes along edges, inner
  /// nodes binary with correct common-prefix labels and Merkle hashes,
  /// every leaf reached once. Returns "" or a description of the violation.
  std::string check_invariants() const;

  /// Adversarial corruption (tests/oracle only): flips one bit in a
  /// pseudo-randomly chosen node's digest, breaking the Merkle / leaf-hash
  /// condition that check_invariants() reports. Returns false (and does
  /// nothing) on an empty trie.
  bool chaos_corrupt_digest(std::uint64_t seed);

 private:
  /// A key as words; m <= 256 needs at most four.
  using Key = std::array<std::uint64_t, 4>;

  struct Link {
    std::uint32_t child[2];  ///< inner nodes only: the 0- and 1-subtries
    std::uint32_t len;       ///< label bit length; key_bits_ marks a leaf
    std::uint32_t leaf;      ///< a leaf below (a leaf's own index)
  };
  static_assert(sizeof(Link) == 16);

  bool is_leaf(std::uint32_t node) const { return links_[node].len == key_bits_; }
  const std::uint64_t* leaf_key(std::uint32_t leaf) const {
    return keys_.data() + static_cast<std::size_t>(leaf) * words_;
  }
  Key key_words(const Publication& p) const;
  /// Appends leaf `p` under `key` and a leaf node for it; returns the node.
  std::uint32_t add_leaf(const Key& key, const Publication& p);
  /// Recomputes an inner node's digest from its children's.
  void rehash(std::uint32_t node);
  /// The node whose subtrie holds exactly the keys starting with `prefix`:
  /// the first node on the prefix's path whose label is at least as long.
  /// kNone when no key starts with it.
  std::uint32_t find(const BitString& prefix) const;
  NodeSummary summary(std::uint32_t node) const;
  /// Calls visit(leaf) for every leaf below `node`, in key order.
  template <class Visit>
  void for_each_leaf(std::uint32_t node, Visit&& visit) const;

  static constexpr std::uint32_t kNone = 0xFFFFFFFF;

  std::vector<Link> links_;
  std::vector<Digest> digests_;      ///< per node, beside links_
  std::vector<std::uint64_t> keys_;  ///< leaf j's key at [j * words_, (j + 1) * words_)
  std::vector<Publication> pubs_;    ///< per leaf, in insertion order
  std::uint32_t key_bits_;
  std::uint32_t words_;
};

}  // namespace ssps::pubsub
