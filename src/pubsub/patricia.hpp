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

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pubsub/hash.hpp"

namespace ssps::pubsub {

/// One publication: originator + opaque payload. The key is derived, not
/// stored with the payload on the wire.
struct Publication {
  sim::NodeId origin;
  std::string payload;
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
class PatriciaTrie {
 public:
  /// `key_bits` = m, the fixed key length all publications share.
  explicit PatriciaTrie(std::size_t key_bits = 64);

  PatriciaTrie(const PatriciaTrie& other);
  PatriciaTrie& operator=(const PatriciaTrie& other);
  PatriciaTrie(PatriciaTrie&&) noexcept = default;
  PatriciaTrie& operator=(PatriciaTrie&&) noexcept = default;

  std::size_t key_bits() const { return key_bits_; }

  /// Inserts a publication (key derived via h̄_m). Returns false if it was
  /// already present. Publications are never removed (§4.2 model).
  bool insert(const Publication& p);

  /// Derives the key of `p` under this trie's m.
  BitString key_of(const Publication& p) const;

  bool contains(const Publication& p) const;
  bool contains_key(const BitString& key) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Root summary; nullopt for the empty trie.
  std::optional<NodeSummary> root() const;

  /// The three-way CheckTrie lookup for a received (label, hash) tuple.
  Locate locate(const BitString& label) const;

  /// All publications whose key starts with `prefix`, in key order.
  std::vector<Publication> collect_prefix(const BitString& prefix) const;

  /// All publications, in key order.
  std::vector<Publication> all() const;

  /// The keys of all publications, in key order: the leaf labels, since
  /// only insert() makes leaves and labels each with its key. Equals
  /// key_of() over all() without hashing anything.
  std::vector<BitString> keys() const;

  /// Structural equality via root digests (collision-resistant).
  bool equal_contents(const PatriciaTrie& other) const;

  /// Invariant checker (tests): labels are prefixes along edges, inner
  /// nodes binary with correct common-prefix labels and Merkle hashes,
  /// leaves at depth m. Returns "" or a description of the violation.
  std::string check_invariants() const;

  /// Adversarial corruption (tests/oracle only): flips one bit in a
  /// pseudo-randomly chosen node's digest, breaking the Merkle / leaf-hash
  /// condition that check_invariants() reports. Returns false (and does
  /// nothing) on an empty trie.
  bool chaos_corrupt_digest(std::uint64_t seed);

 private:
  struct Node {
    BitString label;
    Digest hash;
    // Inner nodes own both children; leaves own none and carry the
    // publication.
    std::unique_ptr<Node> child0;
    std::unique_ptr<Node> child1;
    std::optional<Publication> pub;

    bool is_leaf() const { return !child0; }
  };

  static std::unique_ptr<Node> make_leaf(const BitString& key, Publication pub);
  static void rehash(Node& node);
  static std::unique_ptr<Node> clone(const Node& node);
  const Node* descend(const BitString& label) const;
  void collect(const Node* node, std::vector<Publication>& out) const;

  std::size_t key_bits_;
  std::size_t size_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace ssps::pubsub
