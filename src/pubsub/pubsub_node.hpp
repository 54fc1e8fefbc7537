// Self-stabilizing publication dissemination (Algorithm 5; §4.2–4.3).
//
// Each subscriber keeps its publications in a Merkle-hashed Patricia trie
// and periodically anti-entropies with a random direct ring neighbor via
// CheckTrie / CheckAndPublish / Publish. New publications are additionally
// flooded over all overlay edges (PublishNew), exploiting the skip ring's
// O(log n) diameter; the trie sync repairs anything flooding missed
// (Theorem 17) and goes silent once all tries agree (Theorem 23).
#pragma once

#include <memory>
#include <optional>

#include "core/subscriber.hpp"
#include "core/system.hpp"
#include "pubsub/patricia.hpp"

namespace ssps::pubsub {

namespace msg {

using core::msg::kHeaderBytes;
using core::msg::kRefBytes;

inline std::size_t summary_bytes(const NodeSummary& s) {
  return s.label.size() / 8 + 1 + sizeof(Digest);
}

inline std::size_t publication_bytes(const Publication& p) {
  return kRefBytes + p.payload.size();
}

/// Canonical encodings (common/encode.hpp) of the publication-layer value
/// types, mirroring core::encode_label / encode_ref.
inline void encode_bits(common::Encoder& e, const BitString& b) {
  const std::vector<std::uint8_t> packed = b.to_bytes();
  e.u64(b.size());  // bit length: keeps "0" and "00" distinct
  e.raw(packed.data(), packed.size());
}

inline void encode_summary(common::Encoder& e, const NodeSummary& s) {
  encode_bits(e, s.label);
  e.raw(s.hash.data(), s.hash.size());
}

inline void encode_publication(common::Encoder& e, const Publication& p) {
  e.u64(p.origin.value);
  e.string(p.payload);  // `born` excluded: telemetry stamp, not identity
}

/// CheckTrie(sender, tuples): compare these (label, hash) node summaries
/// against the receiver's trie.
struct CheckTrie final : sim::MsgBase<CheckTrie> {
  sim::NodeId sender;
  std::vector<NodeSummary> tuples;

  CheckTrie(sim::NodeId s, std::vector<NodeSummary> t)
      : sender(s), tuples(std::move(t)) {}
  std::string_view name() const override { return "CheckTrie"; }
  std::size_t wire_size() const override {
    std::size_t sz = kHeaderBytes + kRefBytes;
    for (const auto& t : tuples) sz += summary_bytes(t);
    return sz;
  }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    out.push_back(sender);
  }
  bool encode(common::Encoder& e) const override {
    e.u64(sender.value);
    e.u64(tuples.size());
    for (const auto& t : tuples) encode_summary(e, t);
    return true;
  }
};

/// CheckAndPublish(sender, tuples, prefix): continue checking `tuples` AND
/// send every publication with key prefix `prefix` back to `sender`.
struct CheckAndPublish final : sim::MsgBase<CheckAndPublish> {
  sim::NodeId sender;
  std::vector<NodeSummary> tuples;
  BitString prefix;

  CheckAndPublish(sim::NodeId s, std::vector<NodeSummary> t, BitString p)
      : sender(s), tuples(std::move(t)), prefix(std::move(p)) {}
  std::string_view name() const override { return "CheckAndPublish"; }
  std::size_t wire_size() const override {
    std::size_t sz = kHeaderBytes + kRefBytes + prefix.size() / 8 + 1;
    for (const auto& t : tuples) sz += summary_bytes(t);
    return sz;
  }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    out.push_back(sender);
  }
  bool encode(common::Encoder& e) const override {
    e.u64(sender.value);
    e.u64(tuples.size());
    for (const auto& t : tuples) encode_summary(e, t);
    encode_bits(e, prefix);
    return true;
  }
};

/// Publish(P): deliver a batch of publications.
struct Publish final : sim::MsgBase<Publish> {
  std::vector<Publication> pubs;

  explicit Publish(std::vector<Publication> p) : pubs(std::move(p)) {}
  std::string_view name() const override { return "Publish"; }
  std::size_t wire_size() const override {
    std::size_t sz = kHeaderBytes;
    for (const auto& p : pubs) sz += publication_bytes(p);
    return sz;
  }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    for (const auto& p : pubs) out.push_back(p.origin);
  }
  bool encode(common::Encoder& e) const override {
    e.u64(pubs.size());
    for (const auto& p : pubs) encode_publication(e, p);
    return true;
  }
  void adopt_offwire(const sim::Message& original) override {
    const auto* o = sim::msg_cast<Publish>(original);
    if (o == nullptr || o->pubs.size() != pubs.size()) return;
    for (std::size_t i = 0; i < pubs.size(); ++i) pubs[i].born = o->pubs[i].born;
  }
};

/// PublishNew(p): flooding of a fresh publication (§4.3).
struct PublishNew final : sim::MsgBase<PublishNew> {
  Publication pub;

  explicit PublishNew(Publication p) : pub(std::move(p)) {}
  std::string_view name() const override { return "PublishNew"; }
  std::size_t wire_size() const override { return kHeaderBytes + publication_bytes(pub); }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    out.push_back(pub.origin);
  }
  bool encode(common::Encoder& e) const override {
    encode_publication(e, pub);
    return true;
  }
  void adopt_offwire(const sim::Message& original) override {
    if (const auto* o = sim::msg_cast<PublishNew>(original)) pub.born = o->pub.born;
  }
};

}  // namespace msg

/// Tuning of the publication layer.
struct PubSubConfig {
  /// m: publication key length in bits.
  std::size_t key_bits = 64;
  /// Disable flooding to measure the pure anti-entropy path (ablation E6).
  bool flooding = true;
  /// Disable anti-entropy to measure pure flooding (ablation; not
  /// self-stabilizing on its own!).
  bool anti_entropy = true;
};

/// The Algorithm 5 state machine; one instance per (subscriber, topic).
class PubSubProtocol {
 public:
  PubSubProtocol(core::SubscriberProtocol& overlay, core::MessageSink& sink,
                 ssps::Rng& rng, const PubSubConfig& config = {});

  /// PublishTimeout: anti-entropy with one random direct ring neighbor.
  void timeout();

  /// Dispatches one incoming message; false if not a publication message.
  bool handle(const sim::Message& m);

  /// User-level publish: insert into the own trie and flood (§4.3).
  void publish(std::string payload);

  /// Inserts without flooding (used to model pre-existing/corrupted state
  /// distributions in experiments).
  void add_local(const Publication& p) { trie_.insert(p); }

  const PatriciaTrie& trie() const { return trie_; }
  PatriciaTrie& chaos_trie() { return trie_; }

  const PubSubConfig& config() const { return config_; }

 private:
  void on_check_trie(sim::NodeId sender, const std::vector<NodeSummary>& tuples);
  void on_check_and_publish(const msg::CheckAndPublish& m);
  void on_publish(const msg::Publish& m);
  void on_publish_new(const msg::PublishNew& m);
  /// Processes one received (label, hash) tuple; the three cases of §4.2.
  void check_tuple(sim::NodeId sender, const NodeSummary& tuple);
  void flood(const Publication& p, sim::NodeId except);
  /// Reports `p`'s first receipt here to the sink's latency telemetry.
  /// Only called right after a successful publish-path trie insert;
  /// add_local (pre-existing/corrupted state) never reports.
  void record_delivery(const Publication& p);

  core::SubscriberProtocol* overlay_;
  core::MessageSink* sink_;
  ssps::Rng* rng_;
  PubSubConfig config_;
  PatriciaTrie trie_;
};

/// A network node running the full stack: BuildSR overlay + Algorithm 5.
class PubSubNode final : public core::SubscriberNode {
 public:
  explicit PubSubNode(sim::NodeId supervisor, const PubSubConfig& config = {})
      : core::SubscriberNode(supervisor, sim::NodeKind::kPubSub), config_(config) {}

  static bool classof(sim::NodeKind k) { return k == sim::NodeKind::kPubSub; }

  void on_register() override {
    core::SubscriberNode::on_register();
    sink_.emplace(net());
    pubsub_.emplace(protocol(), *sink_, rng(), config_);
  }
  void handle(sim::PooledMsg msg) override {
    // Overlay maintenance traffic (Check/IntroduceShortcut) dominates, so
    // try the BuildSR layer first; each layer matches by exact type tag.
    if (protocol().handle(*msg)) return;
    pubsub_->handle(*msg);
  }
  void timeout() override {
    core::SubscriberNode::timeout();
    if (!protocol().departed()) pubsub_->timeout();
  }
  bool snapshot_state(common::Encoder& enc) const override {
    // Overlay first, then the publication store: origin, payload, born
    // (the born stamp survives recovery so latency telemetry stays
    // meaningful for replicated copies).
    core::SubscriberNode::snapshot_state(enc);
    const std::vector<Publication> pubs = pubsub_->trie().all();
    enc.u64(pubs.size());
    for (const Publication& p : pubs) {
      enc.u64(p.origin.value);
      enc.string(p.payload);
      enc.u64(p.born);
    }
    return true;
  }
  bool restore_state(common::Decoder& dec) override {
    if (!protocol().decode_state(dec)) return false;
    std::uint64_t count = 0;
    if (!dec.u64(count)) return false;
    // origin (8) + payload length (8) + born (8) minimum per entry.
    if (count > dec.remaining() / 24) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t origin = 0, born = 0;
      std::string payload;
      if (!dec.u64(origin) || !dec.string(payload) || !dec.u64(born)) {
        return false;
      }
      // add_local, not publish: restored publications are pre-existing
      // state, neither re-flooded nor re-counted as deliveries, and their
      // bodies are unkeyed, so insert hashes them.
      pubsub_->add_local(Publication{sim::NodeId{origin}, std::move(payload), born});
    }
    return dec.done();
  }

  PubSubProtocol& pubsub() { return *pubsub_; }
  const PubSubProtocol& pubsub() const { return *pubsub_; }

 private:
  PubSubConfig config_;
  std::optional<core::DirectSink> sink_;
  std::optional<PubSubProtocol> pubsub_;
};

/// SkipRingSystem plus publication-layer helpers.
class PubSubSystem : public core::SkipRingSystem {
 public:
  explicit PubSubSystem(const Options& options = Options{},
                        const PubSubConfig& config = PubSubConfig{})
      : core::SkipRingSystem(options), config_(config) {}

  sim::NodeId add_pubsub_subscriber() {
    return net().spawn<PubSubNode>(supervisor_id(), config_);
  }

  std::vector<sim::NodeId> add_pubsub_subscribers(std::size_t count) {
    std::vector<sim::NodeId> ids;
    ids.reserve(count);
    for (std::size_t i = 0; i < count; ++i) ids.push_back(add_pubsub_subscriber());
    return ids;
  }

  /// Restarts a crashed pub-sub subscriber from its last periodic snapshot,
  /// overlay state and publication store both (see Network::recover —
  /// enable snapshots with net().enable_snapshots). The snapshot may be
  /// stale or corrupted; the recovered node then starts from whatever
  /// restored (or from scratch) and re-stabilizes. Returns true when the
  /// snapshot restored cleanly.
  bool recover_pubsub_subscriber(sim::NodeId id) {
    return net().recover(id,
                         std::make_unique<PubSubNode>(supervisor_id(), config_));
  }

  PubSubProtocol& pubsub(sim::NodeId id) {
    return net().node_as<PubSubNode>(id).pubsub();
  }
  const PubSubProtocol& pubsub(sim::NodeId id) const {
    return const_cast<PubSubSystem*>(this)->pubsub(id);
  }

  /// Theorem 17's goal state: every active subscriber's trie holds the
  /// union of all publications (checked via root digests + sizes).
  bool publications_converged() const;

  /// Total publications across all subscribers (distinct by key).
  std::size_t distinct_publications() const;

 private:
  PubSubConfig config_;
};

}  // namespace ssps::pubsub
