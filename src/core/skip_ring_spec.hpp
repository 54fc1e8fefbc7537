// Ground-truth topology of the skip ring SR(n) (Definition 2).
//
// Used as the oracle for legitimacy checking (convergence/closure tests),
// for Lemma 3 degree analytics, and for diameter measurements. The spec is
// purely combinatorial — it assigns structure to *labels*; concrete node
// ids attach via the supervisor's database.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/label.hpp"

namespace ssps::core {

/// Expected local state of the subscriber holding one label.
struct NodeSpec {
  /// Direct ring predecessor (E_R), absent for the minimum-label node
  /// (which keeps its predecessor — the maximum — in `ring`).
  std::optional<Label> left;
  /// Direct ring successor (E_R), absent for the maximum-label node.
  std::optional<Label> right;
  /// The cyclic closure edge: min stores max, max stores min.
  std::optional<Label> ring;
  /// All shortcut labels (E_S neighbors), sorted by r.
  std::vector<Label> shortcuts;
};

/// The ideal skip ring over labels l(0) … l(n−1).
class SkipRingSpec {
 public:
  explicit SkipRingSpec(std::size_t n);

  std::size_t n() const { return n_; }

  /// ⌈log2 n⌉ — the level of the ring edges; levels 1 … top−1 carry
  /// shortcuts.
  int top_level() const { return top_; }

  /// Labels in ring order (ascending r), starting at label "0".
  const std::vector<Label>& ring_order() const { return order_; }

  /// Expected neighbors of one label. Aborts if the label is not part of
  /// SR(n).
  const NodeSpec& expected(const Label& label) const;

  /// Degree of a label's node counting distinct neighbors (Lemma 3 uses
  /// edge slots; distinct-neighbor degree is what a peer table stores).
  std::size_t degree(const Label& label) const;

  /// Total number of directed edge slots 2·|E_R ∪ E_S| … we report the
  /// undirected edge count |E_R ∪ E_S| as the paper counts it (= 4n − 4
  /// for n a power of two, Lemma 3).
  std::size_t edge_count() const;

  /// Hop distances from `from` to every label over E_R ∪ E_S (BFS).
  std::unordered_map<std::uint64_t, int> hops_from(const Label& from) const;

  /// Exact diameter (max over BFS from every node); O(n·(n+m)) — intended
  /// for n up to a few thousand.
  int diameter() const;

  /// The level of edge (a, b) per Definition 2: max(|a|, |b|).
  static int edge_level(const Label& a, const Label& b);

 private:
  std::size_t index_of(const Label& label) const;

  std::size_t n_;
  int top_;
  std::vector<Label> order_;                    // ring order
  std::vector<NodeSpec> spec_;                  // by ring-order index
  std::unordered_map<std::uint64_t, std::size_t> by_key_;  // r_key -> index
};

}  // namespace ssps::core
