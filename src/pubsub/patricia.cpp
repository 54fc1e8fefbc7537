#include "pubsub/patricia.hpp"

#include <array>
#include <sstream>

#include "common/assert.hpp"

namespace ssps::pubsub {

PatriciaTrie::PatriciaTrie(std::size_t key_bits) : key_bits_(key_bits) {
  SSPS_ASSERT(key_bits >= 1 && key_bits <= 256);
}

PatriciaTrie::PatriciaTrie(const PatriciaTrie& other)
    : key_bits_(other.key_bits_), size_(other.size_) {
  if (other.root_) root_ = clone(*other.root_);
}

PatriciaTrie& PatriciaTrie::operator=(const PatriciaTrie& other) {
  if (this == &other) return *this;
  key_bits_ = other.key_bits_;
  size_ = other.size_;
  root_ = other.root_ ? clone(*other.root_) : nullptr;
  return *this;
}

std::unique_ptr<PatriciaTrie::Node> PatriciaTrie::clone(const Node& node) {
  auto out = std::make_unique<Node>();
  out->label = node.label;
  out->hash = node.hash;
  out->pub = node.pub;
  if (node.child0) out->child0 = clone(*node.child0);
  if (node.child1) out->child1 = clone(*node.child1);
  return out;
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

std::unique_ptr<PatriciaTrie::Node> PatriciaTrie::make_leaf(const BitString& key,
                                                            Publication pub) {
  auto node = std::make_unique<Node>();
  node->label = key;
  node->hash = hash_label(key);
  node->pub = std::move(pub);
  return node;
}

void PatriciaTrie::rehash(Node& node) {
  if (node.is_leaf()) {
    node.hash = hash_label(node.label);
  } else {
    node.hash = hash_children(node.child0->hash, node.child1->hash);
  }
}

bool PatriciaTrie::insert(const Publication& p) {
  const BitString key = key_of(p);
  if (!root_) {
    root_ = make_leaf(key, p);
    size_ = 1;
    return true;
  }
  // Walk down, remembering the path for Merkle re-hashing. Inner labels
  // get strictly longer along a path and stay shorter than m <= 256, so at
  // most 256 inner nodes lie above any leaf.
  std::array<Node*, 257> path{};
  std::size_t depth = 0;
  Node* cur = root_.get();
  for (;;) {
    const std::size_t cpl = cur->label.common_prefix_len(key);
    if (cpl == cur->label.size() && cpl == key.size()) {
      // Exact key present (leaf; inner labels are shorter than m).
      SSPS_ASSERT(cur->is_leaf());
      return false;
    }
    if (cpl == cur->label.size() && !cur->is_leaf()) {
      // cur's label is a proper prefix of key: descend.
      SSPS_ASSERT(depth < path.size());
      path[depth++] = cur;
      cur = key.bit(cpl) ? cur->child1.get() : cur->child0.get();
      continue;
    }
    // Divergence inside cur's label (or cur is a leaf): split here. A new
    // inner node takes the common prefix; cur and the fresh leaf become
    // its children, ordered by their bit right after the prefix.
    SSPS_ASSERT_MSG(cpl < key.size(), "duplicate key with different length");
    SSPS_ASSERT_MSG(cpl < cur->label.size(),
                    "key collision: distinct publications share one key");
    auto fresh = make_leaf(key, p);
    auto inner = std::make_unique<Node>();
    inner->label = key.prefix(cpl);

    // Detach cur from its parent (or root) so we can re-parent it.
    std::unique_ptr<Node>* slot = &root_;
    if (depth > 0) {
      Node* parent = path[depth - 1];
      slot = (parent->child0.get() == cur) ? &parent->child0 : &parent->child1;
    }
    std::unique_ptr<Node> old = std::move(*slot);
    const bool fresh_bit = key.bit(cpl);
    if (fresh_bit) {
      inner->child0 = std::move(old);
      inner->child1 = std::move(fresh);
    } else {
      inner->child0 = std::move(fresh);
      inner->child1 = std::move(old);
    }
    rehash(*inner);
    *slot = std::move(inner);
    while (depth > 0) rehash(*path[--depth]);
    ++size_;
    return true;
  }
}

bool PatriciaTrie::contains(const Publication& p) const { return contains_key(key_of(p)); }

bool PatriciaTrie::contains_key(const BitString& key) const {
  const Locate loc = locate(key);
  return loc.kind == Locate::Kind::kExact && loc.is_leaf;
}

std::optional<NodeSummary> PatriciaTrie::root() const {
  if (!root_) return std::nullopt;
  return NodeSummary{root_->label, root_->hash};
}

Locate PatriciaTrie::locate(const BitString& label) const {
  Locate out;
  const Node* cur = root_.get();
  while (cur != nullptr) {
    const std::size_t cpl = cur->label.common_prefix_len(label);
    if (cpl == label.size()) {
      if (cur->label.size() == label.size()) {
        out.kind = Locate::Kind::kExact;
        out.node = NodeSummary{cur->label, cur->hash};
        out.is_leaf = cur->is_leaf();
        if (!cur->is_leaf()) {
          out.children.push_back(NodeSummary{cur->child0->label, cur->child0->hash});
          out.children.push_back(NodeSummary{cur->child1->label, cur->child1->hash});
        }
      } else {
        // cur's label strictly extends the probe: cur is the minimal
        // extension (its ancestors have shorter labels and were passed).
        out.kind = Locate::Kind::kExtension;
        out.node = NodeSummary{cur->label, cur->hash};
        out.is_leaf = cur->is_leaf();
      }
      return out;
    }
    if (cpl < cur->label.size()) {
      // Diverged inside cur's label: nothing under this probe.
      return out;
    }
    // cur's label is a proper prefix of the probe: descend.
    if (cur->is_leaf()) return out;
    cur = label.bit(cpl) ? cur->child1.get() : cur->child0.get();
  }
  return out;
}

const PatriciaTrie::Node* PatriciaTrie::descend(const BitString& label) const {
  const Node* cur = root_.get();
  while (cur != nullptr) {
    const std::size_t cpl = cur->label.common_prefix_len(label);
    if (cpl == label.size()) return cur;  // covers exact and extension
    if (cpl < cur->label.size()) return nullptr;
    if (cur->is_leaf()) return nullptr;
    cur = label.bit(cpl) ? cur->child1.get() : cur->child0.get();
  }
  return nullptr;
}

void PatriciaTrie::collect(const Node* node, std::vector<Publication>& out) const {
  if (node == nullptr) return;
  if (node->is_leaf()) {
    out.push_back(*node->pub);
    return;
  }
  collect(node->child0.get(), out);
  collect(node->child1.get(), out);
}

std::vector<Publication> PatriciaTrie::collect_prefix(const BitString& prefix) const {
  std::vector<Publication> out;
  collect(descend(prefix), out);
  return out;
}

std::vector<Publication> PatriciaTrie::all() const {
  std::vector<Publication> out;
  out.reserve(size_);
  collect(root_.get(), out);
  return out;
}

std::vector<BitString> PatriciaTrie::keys() const {
  std::vector<BitString> out;
  out.reserve(size_);
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node == nullptr) return;
    if (node->is_leaf()) {
      out.push_back(node->label);
      return;
    }
    self(self, node->child0.get());
    self(self, node->child1.get());
  };
  walk(walk, root_.get());
  return out;
}

bool PatriciaTrie::equal_contents(const PatriciaTrie& other) const {
  if (!root_ || !other.root_) return size_ == other.size_;
  return root_->hash == other.root_->hash;
}

bool PatriciaTrie::chaos_corrupt_digest(std::uint64_t seed) {
  if (!root_) return false;
  // Preorder walk to the (seed mod node-count)-th node, then flip one bit
  // of its digest. Deterministic per (trie, seed).
  std::vector<Node*> nodes;
  auto walk = [&](auto&& self, Node& node) -> void {
    nodes.push_back(&node);
    if (node.child0) self(self, *node.child0);
    if (node.child1) self(self, *node.child1);
  };
  walk(walk, *root_);
  Node& victim = *nodes[seed % nodes.size()];
  victim.hash[(seed >> 8) % victim.hash.size()] ^=
      static_cast<std::uint8_t>(1u << ((seed >> 16) % 8));
  return true;
}

std::string PatriciaTrie::check_invariants() const {
  std::ostringstream why;
  std::size_t leaves = 0;
  // Recursive structural walk.
  auto walk = [&](auto&& self, const Node& node) -> bool {
    if (node.is_leaf()) {
      ++leaves;
      if (node.child1) {
        why << "leaf with one child at " << node.label.to_string();
        return false;
      }
      if (node.label.size() != key_bits_) {
        why << "leaf key length " << node.label.size() << " != m";
        return false;
      }
      if (!node.pub) {
        why << "leaf without publication";
        return false;
      }
      if (node.hash != hash_label(node.label)) {
        why << "leaf hash mismatch at " << node.label.to_string();
        return false;
      }
      return true;
    }
    if (!node.child0 || !node.child1) {
      why << "inner node with one child at " << node.label.to_string();
      return false;
    }
    for (const Node* c : {node.child0.get(), node.child1.get()}) {
      if (!node.label.is_prefix_of(c->label) || c->label.size() <= node.label.size()) {
        why << "child label not a proper extension at " << node.label.to_string();
        return false;
      }
    }
    // Children must diverge immediately after the parent label (path
    // compression: the label is the longest common prefix).
    if (node.child0->label.bit(node.label.size()) != false ||
        node.child1->label.bit(node.label.size()) != true) {
      why << "children out of order at " << node.label.to_string();
      return false;
    }
    if (node.hash != hash_children(node.child0->hash, node.child1->hash)) {
      why << "inner hash mismatch at " << node.label.to_string();
      return false;
    }
    return self(self, *node.child0) && self(self, *node.child1);
  };
  if (root_ && !walk(walk, *root_)) return why.str();
  if (root_ && leaves != size_) return "size does not match leaf count";
  if (!root_ && size_ != 0) return "size nonzero with empty root";
  return "";
}

}  // namespace ssps::pubsub
