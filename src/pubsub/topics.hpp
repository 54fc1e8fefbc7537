// Topic-based publish-subscribe (§4): one BuildSR + Algorithm 5 instance
// per topic, multiplexed over a single node and a single supervisor
// process by tagging every message with its topic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/flat_map.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/supervisor_group.hpp"

namespace ssps::pubsub {

/// Wraps a protocol message with the topic it refers to (§4: "each message
/// contains the topic"). Metrics keep the inner action label so per-action
/// accounting stays meaningful across topics.
struct TopicEnvelope final : sim::MsgBase<TopicEnvelope> {
  TopicId topic;
  sim::PooledMsg inner;

  TopicEnvelope(TopicId t, sim::PooledMsg m) : topic(t), inner(std::move(m)) {
    set_metrics_type(inner->metrics_type());
  }
  std::string_view name() const override { return inner->name(); }
  std::size_t wire_size() const override { return inner->wire_size() + sizeof(TopicId); }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    inner->collect_refs(out);
  }
  sim::PooledMsg clone_into(sim::MessagePool& pool) const override {
    // Move-only (the inner handle), so the MsgBase auto-clone can't apply:
    // clone the payload first, then re-wrap it under the same topic.
    sim::PooledMsg inner_copy = inner->clone_into(pool);
    if (!inner_copy) return {};
    return pool.make<TopicEnvelope>(topic, std::move(inner_copy));
  }
  bool encode(common::Encoder& e) const override {
    // Topic first, then the inner payload. The extra u32 keeps an
    // enveloped message's encoding distinct from its bare payload's (they
    // share name()). The wire codec (src/wire/codec.cpp) frames envelopes
    // itself — topic, inner *wire type*, inner payload — because a decoder
    // needs the inner type tag this canonical form omits.
    e.u32(topic);
    return inner->encode(e);
  }
  void adopt_offwire(const sim::Message& original) override {
    if (const auto* o = sim::msg_cast<TopicEnvelope>(original)) {
      inner->adopt_offwire(*o->inner);
    }
  }
};

/// MessageSink that stamps outgoing messages with a fixed topic.
class TopicSink final : public core::MessageSink {
 public:
  TopicSink(sim::Network& net, TopicId topic) : net_(&net), topic_(topic) {}
  void send(sim::NodeId to, sim::PooledMsg msg) override {
    net_->send(to, net_->pool().make<TopicEnvelope>(topic_, std::move(msg)));
  }
  sim::MessagePool& pool() override { return net_->pool(); }
  sim::Round round() const override { return net_->round(); }
  void publication_delivered(sim::Round latency) override {
    // Topic ids start at 1 (the universe is [1, topics]), so the sink's
    // topic never collides with the kNoTopic sentinel.
    net_->record_delivery_latency(topic_, latency);
  }

 private:
  sim::Network* net_;
  TopicId topic_;
};

/// Maps a topic to the supervisor responsible for it. The single-supervisor
/// deployment is a constant function; the scalable deployment hashes
/// through a SupervisorGroup (§1.3).
using SupervisorResolver = std::function<sim::NodeId(TopicId)>;

/// A client node participating in any number of topics.
class MultiTopicNode final : public sim::Node {
 public:
  explicit MultiTopicNode(SupervisorResolver resolver,
                          const PubSubConfig& config = {})
      : sim::Node(sim::NodeKind::kMultiTopicClient),
        resolver_(std::move(resolver)),
        config_(config) {}

  static bool classof(sim::NodeKind k) {
    return k == sim::NodeKind::kMultiTopicClient;
  }

  /// Convenience for the one-supervisor deployment.
  static SupervisorResolver fixed(sim::NodeId supervisor) {
    return [supervisor](TopicId) { return supervisor; };
  }

  void handle(sim::PooledMsg msg) override;
  void timeout() override;
  void collect_refs(std::vector<sim::NodeId>& out) const override;

  /// Starts a BuildSR instance for `topic`; it subscribes on next Timeout.
  void subscribe(TopicId topic);
  /// Requests departure; the instance is deleted once permission arrives
  /// ("the subscriber may remove the respective BuildSR protocol", §4).
  void unsubscribe(TopicId topic);

  /// Forcibly discards the per-topic instance without the departure
  /// handshake. Used when the topic's supervisor crashed (no one can grant
  /// permission) and the topic is being rehomed onto another supervisor;
  /// stale traffic for the dropped topic is answered with RemoveConnections
  /// by the departed-topic path in handle().
  void drop_topic(TopicId topic);
  void publish(TopicId topic, std::string payload);

  bool subscribed(TopicId topic) const { return topics_.contains(topic); }
  std::vector<TopicId> topics() const;

  /// (overlay state version, publication-store size) of the per-topic
  /// instance — the member's contribution to the engine's per-topic
  /// convergence epoch (ScenarioRunner::converged). Two integer reads;
  /// nullopt when not subscribed (instance existence is part of the
  /// epoch). Together these cover every per-member fact the convergence
  /// probe evaluates: the overlay's label (state_version) and the trie
  /// size (read directly).
  std::optional<std::pair<std::uint64_t, std::size_t>> topic_epoch(
      TopicId topic) const;

  /// Accessors abort if the topic is not joined.
  core::SubscriberProtocol& overlay(TopicId topic);
  const core::SubscriberProtocol& overlay(TopicId topic) const;
  PubSubProtocol& pubsub(TopicId topic);
  const PubSubProtocol& pubsub(TopicId topic) const;

 private:
  struct Instance {
    std::unique_ptr<TopicSink> sink;
    std::unique_ptr<core::SubscriberProtocol> sub;
    std::unique_ptr<PubSubProtocol> ps;
  };

  Instance& instance(TopicId topic);
  const Instance& instance(TopicId topic) const;

  SupervisorResolver resolver_;
  PubSubConfig config_;
  /// Sorted flat table (see common/flat_map.hpp): timeout() walks every
  /// instance each round, and envelope dispatch looks one up per message.
  /// The protocol objects live behind unique_ptrs, so entry moves on
  /// insert/erase never invalidate the sink/overlay pointers they share.
  FlatMap<TopicId, Instance> topics_;
};

/// A supervisor process serving any number of topics (one database each).
/// The per-topic maintenance cost is what experiment E13 measures.
class MultiTopicSupervisorNode final : public sim::Node {
 public:
  explicit MultiTopicSupervisorNode(const sim::FailureDetector** fd = nullptr)
      : sim::Node(sim::NodeKind::kMultiTopicSupervisor), fd_(fd) {}

  static bool classof(sim::NodeKind k) {
    return k == sim::NodeKind::kMultiTopicSupervisor;
  }

  void handle(sim::PooledMsg msg) override;
  void timeout() override;
  void collect_refs(std::vector<sim::NodeId>& out) const override;

  /// Instantiates (or returns) the per-topic supervisor protocol.
  core::SupervisorProtocol& topic_supervisor(TopicId topic);
  const core::SupervisorProtocol* find_topic(TopicId topic) const;

  std::size_t topic_count() const { return topics_.size(); }

 private:
  struct Instance {
    std::unique_ptr<TopicSink> sink;
    std::unique_ptr<core::SupervisorProtocol> proto;
  };

  const sim::FailureDetector** fd_;
  FlatMap<TopicId, Instance> topics_;
};

}  // namespace ssps::pubsub
