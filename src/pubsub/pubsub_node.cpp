#include "pubsub/pubsub_node.hpp"

#include <algorithm>
#include <unordered_set>

namespace ssps::pubsub {

PubSubProtocol::PubSubProtocol(core::SubscriberProtocol& overlay, core::MessageSink& sink,
                               ssps::Rng& rng, const PubSubConfig& config)
    : overlay_(&overlay), sink_(&sink), rng_(&rng), config_(config),
      trie_(config.key_bits) {}

// ---------------------------------------------------------------------------
// PublishTimeout
// ---------------------------------------------------------------------------

void PubSubProtocol::timeout() {
  if (!config_.anti_entropy) return;
  if (trie_.empty()) return;  // nothing to offer; we learn via neighbors
  std::array<sim::NodeId, 3> neighbors;
  const std::size_t count = overlay_->ring_neighbors_into(neighbors);
  if (count == 0) return;
  const sim::NodeId target = neighbors[rng_->below(count)];
  sink_->emit<msg::CheckTrie>(target, overlay_->self(),
                              std::vector<NodeSummary>{*trie_.root()});
}

void PubSubProtocol::publish(std::string payload) {
  // A publication is born only here, so only here is its body keyed: every
  // copy that floods or syncs out of this trie then shares one digest.
  const sim::NodeId self = overlay_->self();
  Publication p{self, Payload::keyed(self, std::move(payload)), sink_->round()};
  if (!trie_.insert(p)) return;
  sink_->publication_delivered(0);  // reached the origin by definition
  if (config_.flooding) flood(p, sim::NodeId::null());
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool PubSubProtocol::handle(const sim::Message& m) {
  if (const auto* ct = sim::msg_cast<msg::CheckTrie>(m)) {
    on_check_trie(ct->sender, ct->tuples);
    return true;
  }
  if (const auto* cp = sim::msg_cast<msg::CheckAndPublish>(m)) {
    on_check_and_publish(*cp);
    return true;
  }
  if (const auto* p = sim::msg_cast<msg::Publish>(m)) {
    on_publish(*p);
    return true;
  }
  if (const auto* pn = sim::msg_cast<msg::PublishNew>(m)) {
    on_publish_new(*pn);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Anti-entropy (the three CheckTrie cases of §4.2)
// ---------------------------------------------------------------------------

void PubSubProtocol::check_tuple(sim::NodeId sender, const NodeSummary& tuple) {
  Locate loc = trie_.locate(tuple.label);
  switch (loc.kind) {
    case Locate::Kind::kExact: {
      if (loc.node.hash == tuple.hash) return;  // subtries identical: silence
      if (!loc.is_leaf) {
        // Case (ii): recurse into our children; the sender compares them.
        sink_->emit<msg::CheckTrie>(sender, overlay_->self(), std::move(loc.children));
        return;
      }
      // Equal leaf labels always hash equally (hash = h(label)); reaching
      // this point means the tuple is corrupted. Re-anchor the exchange at
      // our root so the protocol still converges from garbage.
      if (auto r = trie_.root()) {
        sink_->emit<msg::CheckTrie>(sender, overlay_->self(),
                                    std::vector<NodeSummary>{*r});
      }
      return;
    }
    case Locate::Kind::kExtension: {
      // Case (iii)a: we have no node with this exact label but some node c
      // extends it ⇒ everything under label ∘ (1 − b1) is missing here,
      // where b1 is c's bit right after the probe label.
      const bool b1 = loc.node.label.bit(tuple.label.size());
      sink_->emit<msg::CheckAndPublish>(sender, overlay_->self(),
                                        std::vector<NodeSummary>{loc.node},
                                        tuple.label.with_bit(!b1));
      return;
    }
    case Locate::Kind::kMiss: {
      // Case (iii)b: the whole subtrie is missing here — ask for all of it.
      sink_->emit<msg::CheckAndPublish>(sender, overlay_->self(),
                                        std::vector<NodeSummary>{}, tuple.label);
      return;
    }
  }
}

void PubSubProtocol::on_check_trie(sim::NodeId sender,
                                   const std::vector<NodeSummary>& tuples) {
  if (sender == overlay_->self() || !sender) return;
  for (const NodeSummary& t : tuples) check_tuple(sender, t);
}

void PubSubProtocol::on_check_and_publish(const msg::CheckAndPublish& m) {
  if (m.sender == overlay_->self() || !m.sender) return;
  on_check_trie(m.sender, m.tuples);
  auto pubs = trie_.collect_prefix(m.prefix);
  if (!pubs.empty()) {
    sink_->emit<msg::Publish>(m.sender, std::move(pubs));
  }
}

void PubSubProtocol::on_publish(const msg::Publish& m) {
  for (const Publication& p : m.pubs) {
    if (trie_.insert(p)) record_delivery(p);
  }
}

void PubSubProtocol::record_delivery(const Publication& p) {
  // Latency = rounds from publish to this node's first receipt. Clamped:
  // adversarially injected state may carry born stamps from the future.
  const sim::Round now = sink_->round();
  sink_->publication_delivered(now > p.born ? now - p.born : 0);
}

// ---------------------------------------------------------------------------
// Flooding (§4.3)
// ---------------------------------------------------------------------------

void PubSubProtocol::flood(const Publication& p, sim::NodeId except) {
  for (sim::NodeId nbr : overlay_->overlay_neighbors()) {
    if (nbr != except) sink_->emit<msg::PublishNew>(nbr, p);
  }
}

void PubSubProtocol::on_publish_new(const msg::PublishNew& m) {
  if (!trie_.insert(m.pub)) return;  // already known: drop, do not forward
  record_delivery(m.pub);
  if (config_.flooding) flood(m.pub, m.pub.origin);
}

// ---------------------------------------------------------------------------
// PubSubSystem helpers
// ---------------------------------------------------------------------------

bool PubSubSystem::publications_converged() const {
  // All tries pairwise equal ⟺ every trie equals the union (the union is
  // taken over these same tries). Equality is decided by Merkle root
  // digest plus size — O(1) per member — rather than the structural walk
  // plus an O(members · publications) union materialization the probe used
  // to pay on every round of a convergence wait. equal_contents() remains
  // the bit-exact comparator for tests.
  const auto ids = active_ids();
  if (ids.empty()) return true;
  bool have_first = false;
  std::size_t first_size = 0;
  std::optional<NodeSummary> first_root;
  for (sim::NodeId id : ids) {
    const PatriciaTrie& t = pubsub(id).trie();
    const std::optional<NodeSummary> root = t.root();
    if (!have_first) {
      have_first = true;
      first_size = t.size();
      first_root = root;
      continue;
    }
    if (t.size() != first_size || root != first_root) return false;
  }
  return true;
}

std::size_t PubSubSystem::distinct_publications() const {
  // Tries with equal root digests hold equal sets (the premise of
  // publications_converged()), so only one trie per distinct root is
  // walked; once converged that is a single trie, whose size is the answer.
  std::vector<std::pair<Digest, const PatriciaTrie*>> by_root;
  for (sim::NodeId id : active_ids()) {
    const PatriciaTrie& t = pubsub(id).trie();
    if (const std::optional<NodeSummary> root = t.root()) {
      by_root.emplace_back(root->hash, &t);
    }
  }
  const auto root_less = [](const auto& a, const auto& b) { return a.first < b.first; };
  const auto root_equal = [](const auto& a, const auto& b) { return a.first == b.first; };
  std::sort(by_root.begin(), by_root.end(), root_less);
  by_root.erase(std::unique(by_root.begin(), by_root.end(), root_equal), by_root.end());
  if (by_root.size() == 1) return by_root.front().second->size();
  std::unordered_set<BitString> keys;
  for (const auto& [root, trie] : by_root) {
    for (BitString& key : trie->keys()) keys.insert(std::move(key));
  }
  return keys.size();
}

}  // namespace ssps::pubsub
