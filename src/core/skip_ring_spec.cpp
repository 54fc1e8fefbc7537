#include "core/skip_ring_spec.hpp"

#include <algorithm>
#include <deque>

#include "common/assert.hpp"
#include "core/shortcuts.hpp"

namespace ssps::core {

namespace {

int ceil_log2(std::size_t n) {
  int k = 0;
  std::size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++k;
  }
  return k;
}

}  // namespace

SkipRingSpec::SkipRingSpec(std::size_t n) : n_(n), top_(ceil_log2(n)) {
  SSPS_ASSERT(n >= 1);
  order_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) order_.push_back(Label::from_index(i));
  std::sort(order_.begin(), order_.end());
  for (std::size_t i = 0; i < n; ++i) by_key_.emplace(order_[i].r_key(), i);

  spec_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeSpec& s = spec_[i];
    const Label& me = order_[i];
    std::optional<Label> left_nbr;
    std::optional<Label> right_nbr;
    if (n == 1) {
      // A single node has no edges at all.
    } else {
      const Label& pred = order_[(i + n - 1) % n];
      const Label& succ = order_[(i + 1) % n];
      // The minimum keeps its predecessor (= the maximum) in `ring`, and
      // symmetrically for the maximum, closing the sorted list to a cycle.
      if (i == 0) {
        s.ring = pred;
        s.right = succ;
      } else if (i == n - 1) {
        s.ring = succ;
        s.left = pred;
      } else {
        s.left = pred;
        s.right = succ;
      }
      left_nbr = pred;
      right_nbr = succ;
    }
    s.shortcuts = expected_shortcut_labels(me, left_nbr, right_nbr);
  }
}

const NodeSpec& SkipRingSpec::expected(const Label& label) const {
  return spec_[index_of(label)];
}

std::size_t SkipRingSpec::index_of(const Label& label) const {
  auto it = by_key_.find(label.r_key());
  SSPS_ASSERT_MSG(it != by_key_.end(), "label not in SR(n)");
  return it->second;
}

std::size_t SkipRingSpec::degree(const Label& label) const {
  const NodeSpec& s = spec_[index_of(label)];
  // Count distinct neighbor labels across ring edges and shortcuts.
  std::vector<Label> nbrs = s.shortcuts;
  if (s.left) nbrs.push_back(*s.left);
  if (s.right) nbrs.push_back(*s.right);
  if (s.ring) nbrs.push_back(*s.ring);
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  return nbrs.size();
}

std::size_t SkipRingSpec::edge_count() const {
  // Count undirected distinct-neighbor pairs: sum of degrees / 2.
  std::size_t total = 0;
  for (const Label& l : order_) total += degree(l);
  return total / 2;
}

std::unordered_map<std::uint64_t, int> SkipRingSpec::hops_from(const Label& from) const {
  std::unordered_map<std::uint64_t, int> dist;
  std::deque<std::size_t> queue;
  dist.emplace(from.r_key(), 0);
  queue.push_back(index_of(from));
  while (!queue.empty()) {
    const std::size_t cur = queue.front();
    queue.pop_front();
    const int d = dist.at(order_[cur].r_key());
    const NodeSpec& s = spec_[cur];
    auto visit = [&](const Label& nbr) {
      if (dist.emplace(nbr.r_key(), d + 1).second) queue.push_back(index_of(nbr));
    };
    if (s.left) visit(*s.left);
    if (s.right) visit(*s.right);
    if (s.ring) visit(*s.ring);
    for (const Label& l : s.shortcuts) visit(l);
  }
  return dist;
}

int SkipRingSpec::diameter() const {
  int best = 0;
  for (const Label& l : order_) {
    const auto dist = hops_from(l);
    SSPS_ASSERT_MSG(dist.size() == n_, "SR(n) must be connected");
    for (const auto& [key, d] : dist) best = std::max(best, d);
  }
  return best;
}

int SkipRingSpec::edge_level(const Label& a, const Label& b) {
  return std::max(a.length(), b.length());
}

}  // namespace ssps::core
