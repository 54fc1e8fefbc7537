#include "pubsub/patricia.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "common/assert.hpp"

namespace ssps::pubsub {

namespace {

/// Bit i of packed words in BitString's layout (MSB first).
bool bit_at(const std::uint64_t* words, std::size_t i) {
  return (words[i / 64] >> (63 - i % 64)) & 1ULL;
}

/// The length of the common prefix of two packed strings, capped at `bits`;
/// reads (bits + 63) / 64 words of each.
std::size_t common_prefix(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t bits) {
  const std::size_t n = (bits + 63) / 64;
  for (std::size_t w = 0; w < n; ++w) {
    if (const std::uint64_t x = a[w] ^ b[w]) {
      return std::min(bits, w * 64 + static_cast<std::size_t>(std::countl_zero(x)));
    }
  }
  return bits;
}

}  // namespace

PatriciaTrie::PatriciaTrie(std::size_t key_bits)
    : key_bits_(static_cast<std::uint32_t>(key_bits)),
      words_(static_cast<std::uint32_t>((key_bits + 63) / 64)) {
  SSPS_ASSERT(key_bits >= 1 && key_bits <= 256);
}

Payload Payload::keyed(sim::NodeId origin, std::string bytes) {
  const Digest digest = publication_digest(origin, bytes);
  return Payload(std::make_shared<const Body>(Body{std::move(bytes), origin, digest}));
}

BitString PatriciaTrie::key_of(const Publication& p) const {
  if (const std::optional<Digest> digest = p.payload.digest_for(p.origin)) {
    return publication_key(*digest, key_bits_);
  }
  return publication_key(p.origin, p.payload, key_bits_);
}

PatriciaTrie::Key PatriciaTrie::key_words(const Publication& p) const {
  const std::optional<Digest> memo = p.payload.digest_for(p.origin);
  const Digest digest = memo ? *memo : publication_digest(p.origin, p.payload);
  // The digest's first m bits, eight bytes per word, the bits past m
  // cleared: the words of key_of(p).
  Key key{};
  for (std::size_t i = 0; i < words_; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, digest.data() + 8 * i, sizeof(word));
    key[i] = std::endian::native == std::endian::little ? __builtin_bswap64(word) : word;
  }
  if (const std::size_t rem = key_bits_ % 64; rem != 0) {
    key[words_ - 1] &= ~0ULL << (64 - rem);
  }
  return key;
}

std::uint32_t PatriciaTrie::add_leaf(const Key& key, const Publication& p) {
  const auto leaf = static_cast<std::uint32_t>(pubs_.size());
  keys_.insert(keys_.end(), key.begin(), key.begin() + words_);
  pubs_.push_back(p);
  const auto node = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{{kNone, kNone}, key_bits_, leaf});
  digests_.push_back(hash_label(std::span(key.data(), words_), key_bits_));
  return node;
}

void PatriciaTrie::rehash(std::uint32_t node) {
  const Link& l = links_[node];
  digests_[node] = hash_children(digests_[l.child[0]], digests_[l.child[1]]);
}

bool PatriciaTrie::insert(const Publication& p) {
  const Key key = key_words(p);
  if (links_.empty()) {
    // Room for four leaves (seven nodes) from the first insert, so a small
    // trie allocates each array once. Capacities stay powers of two, which
    // fit 2^k leaves (2^(k+1) - 1 nodes) exactly.
    links_.reserve(8);
    digests_.reserve(8);
    keys_.reserve(4 * words_);
    pubs_.reserve(4);
    add_leaf(key, p);
    return true;
  }
  // Skip descent: one key bit per inner node, then one whole-key compare
  // at the leaf reached. A duplicate stops here.
  std::uint32_t at = 0;
  while (!is_leaf(at)) at = links_[at].child[bit_at(key.data(), links_[at].len)];
  const std::size_t cpl = common_prefix(key.data(), leaf_key(links_[at].leaf), key_bits_);
  if (cpl == key_bits_) return false;

  // A new key splits the first node on its path whose label is longer than
  // cpl. Above that node every label is shorter than cpl, so the key agrees
  // with it and the walk retraces the descent; no label has exactly cpl
  // bits, or the descent would have turned the other way there. Labels grow
  // along a path and stay below m <= 256, so at most 255 lie above.
  std::array<std::uint32_t, 256> path;
  std::size_t depth = 0;
  at = 0;
  while (links_[at].len < cpl) {
    path[depth++] = at;
    at = links_[at].child[bit_at(key.data(), links_[at].len)];
  }
  // The split node moves to a fresh index and the new inner node takes its
  // place, so no parent pointer changes and the root stays node 0.
  const std::uint32_t fresh = add_leaf(key, p);
  const auto moved = static_cast<std::uint32_t>(links_.size());
  const Link old = links_[at];
  const Digest old_digest = digests_[at];
  links_.push_back(old);
  digests_.push_back(old_digest);
  const bool b = bit_at(key.data(), cpl);
  Link& split = links_[at];
  split.child[b] = fresh;
  split.child[!b] = moved;
  split.len = static_cast<std::uint32_t>(cpl);
  split.leaf = old.leaf;
  rehash(at);
  while (depth > 0) rehash(path[--depth]);
  return true;
}

std::uint32_t PatriciaTrie::find(const BitString& prefix) const {
  const std::size_t bits = prefix.size();
  if (links_.empty() || bits > key_bits_) return kNone;
  const std::uint64_t* probe = prefix.word_span().data();
  // A leaf's label has m >= bits bits, so the descent ends at a leaf at the
  // latest; the probe is then checked once, against one key below.
  std::uint32_t at = 0;
  while (links_[at].len < bits) at = links_[at].child[bit_at(probe, links_[at].len)];
  return common_prefix(probe, leaf_key(links_[at].leaf), bits) == bits ? at : kNone;
}

NodeSummary PatriciaTrie::summary(std::uint32_t node) const {
  const Link& l = links_[node];
  return NodeSummary{BitString::from_words({leaf_key(l.leaf), words_}, l.len),
                     digests_[node]};
}

template <class Visit>
void PatriciaTrie::for_each_leaf(std::uint32_t node, Visit&& visit) const {
  const Link& l = links_[node];
  if (l.len == key_bits_) {
    visit(l.leaf);
    return;
  }
  for_each_leaf(l.child[0], visit);
  for_each_leaf(l.child[1], visit);
}

std::optional<NodeSummary> PatriciaTrie::root() const {
  if (links_.empty()) return std::nullopt;
  return summary(0);
}

Locate PatriciaTrie::locate(const BitString& label) const {
  Locate out;
  const std::uint32_t at = find(label);
  if (at == kNone) return out;
  const Link& l = links_[at];
  out.node = summary(at);
  out.is_leaf = is_leaf(at);
  if (l.len > label.size()) {
    // at's label strictly extends the probe: at is the minimal extension
    // (its ancestors have shorter labels and were passed).
    out.kind = Locate::Kind::kExtension;
    return out;
  }
  out.kind = Locate::Kind::kExact;
  if (!out.is_leaf) out.children = {summary(l.child[0]), summary(l.child[1])};
  return out;
}

std::vector<Publication> PatriciaTrie::collect_prefix(const BitString& prefix) const {
  std::vector<Publication> out;
  const std::uint32_t at = find(prefix);
  if (at != kNone) {
    for_each_leaf(at, [&](std::uint32_t leaf) { out.push_back(pubs_[leaf]); });
  }
  return out;
}

std::vector<Publication> PatriciaTrie::all() const {
  std::vector<Publication> out;
  out.reserve(size());
  if (!empty()) {
    for_each_leaf(0, [&](std::uint32_t leaf) { out.push_back(pubs_[leaf]); });
  }
  return out;
}

std::vector<BitString> PatriciaTrie::keys() const {
  std::vector<BitString> out;
  out.reserve(size());
  if (!empty()) {
    for_each_leaf(0, [&](std::uint32_t leaf) {
      out.push_back(BitString::from_words({leaf_key(leaf), words_}, key_bits_));
    });
  }
  return out;
}

bool PatriciaTrie::equal_contents(const PatriciaTrie& other) const {
  if (empty() || other.empty()) return size() == other.size();
  return digests_[0] == other.digests_[0];
}

bool PatriciaTrie::chaos_corrupt_digest(std::uint64_t seed) {
  if (links_.empty()) return false;
  // Preorder walk to the (seed mod node-count)-th node, then flip one bit
  // of its digest. Deterministic per (trie, seed).
  std::size_t skip = seed % links_.size();
  std::vector<std::uint32_t> stack{0};
  std::uint32_t victim = 0;
  for (;;) {
    victim = stack.back();
    stack.pop_back();
    if (skip-- == 0) break;
    if (!is_leaf(victim)) {
      stack.push_back(links_[victim].child[1]);
      stack.push_back(links_[victim].child[0]);
    }
  }
  Digest& digest = digests_[victim];
  digest[(seed >> 8) % digest.size()] ^=
      static_cast<std::uint8_t>(1u << ((seed >> 16) % 8));
  return true;
}

std::string PatriciaTrie::check_invariants() const {
  if (links_.empty()) return pubs_.empty() ? "" : "size nonzero with empty root";
  if (links_.size() != 2 * pubs_.size() - 1 || digests_.size() != links_.size() ||
      keys_.size() != pubs_.size() * words_) {
    return "node and leaf arrays disagree in size";
  }
  std::ostringstream why;
  std::vector<bool> reached(pubs_.size(), false);
  std::size_t leaves = 0;
  auto label = [&](std::uint32_t node) { return summary(node).label.to_string(); };
  // Recursive structural walk. Labels grow strictly along every edge, so
  // the walk ends even on a corrupted trie.
  auto walk = [&](auto&& self, std::uint32_t node) -> bool {
    const Link& l = links_[node];
    if (l.leaf >= pubs_.size() || l.len > key_bits_) {
      why << "node " << node << " reads a missing leaf or is longer than m";
      return false;
    }
    if (l.len == key_bits_) {
      if (reached[l.leaf]) {
        why << "leaf reached twice at " << label(node);
        return false;
      }
      reached[l.leaf] = true;
      ++leaves;
      if (digests_[node] != hash_label({leaf_key(l.leaf), words_}, key_bits_)) {
        why << "leaf hash mismatch at " << label(node);
        return false;
      }
      return true;
    }
    for (const std::uint32_t c : l.child) {
      if (c >= links_.size() || links_[c].len <= l.len ||
          links_[c].leaf >= pubs_.size() ||
          common_prefix(leaf_key(l.leaf), leaf_key(links_[c].leaf), l.len) != l.len) {
        why << "child label not a proper extension at " << label(node);
        return false;
      }
    }
    // Children must diverge immediately after the parent label (path
    // compression: the label is the longest common prefix).
    if (bit_at(leaf_key(links_[l.child[0]].leaf), l.len) ||
        !bit_at(leaf_key(links_[l.child[1]].leaf), l.len)) {
      why << "children out of order at " << label(node);
      return false;
    }
    if (digests_[node] != hash_children(digests_[l.child[0]], digests_[l.child[1]])) {
      why << "inner hash mismatch at " << label(node);
      return false;
    }
    return self(self, l.child[0]) && self(self, l.child[1]);
  };
  if (!walk(walk, 0)) return why.str();
  if (leaves != pubs_.size()) return "size does not match leaf count";
  return "";
}

}  // namespace ssps::pubsub
