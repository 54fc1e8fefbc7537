// Single-topic system harness: wires one supervisor and its subscribers
// into a sim::Network and provides legitimacy checking against SR(n).
//
// This is the primary entry point for tests, benches and examples that
// exercise the overlay layer on its own (topic multiplexing lives in
// src/pubsub/topics.hpp).
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/skip_ring_spec.hpp"
#include "core/subscriber.hpp"
#include "core/supervisor.hpp"
#include "sim/failure_detector.hpp"
#include "sim/network.hpp"

namespace ssps::core {

/// sim::Node adapter that forwards directly into a protocol object.
/// Messages are sent verbatim (no topic envelope).
class DirectSink final : public MessageSink {
 public:
  explicit DirectSink(sim::Network& net) : net_(&net) {}
  void send(sim::NodeId to, sim::PooledMsg msg) override {
    net_->send(to, std::move(msg));
  }
  sim::MessagePool& pool() override { return net_->pool(); }
  sim::Round round() const override { return net_->round(); }
  void publication_delivered(sim::Round latency) override {
    net_->record_delivery_latency(telemetry::LatencyTracker::kNoTopic, latency);
  }

 private:
  sim::Network* net_;
};

/// A network node running exactly one SubscriberProtocol instance.
class SubscriberNode : public sim::Node {
 public:
  explicit SubscriberNode(sim::NodeId supervisor)
      : SubscriberNode(supervisor, sim::NodeKind::kSubscriber) {}

  static bool classof(sim::NodeKind k) {
    // Every kind whose node IS-A SubscriberNode: the plain overlay node and
    // the pub-sub specialization.
    return k == sim::NodeKind::kSubscriber || k == sim::NodeKind::kPubSub;
  }

  void handle(sim::PooledMsg msg) override { proto_->handle(*msg); }
  void timeout() override { proto_->timeout(); }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    if (proto_) proto_->collect_refs(out);
  }
  void on_register() override {
    sink_.emplace(net());
    proto_.emplace(id(), supervisor_, *sink_, rng());
  }
  bool snapshot_state(common::Encoder& enc) const override {
    proto_->encode_state(enc);
    return true;
  }
  bool restore_state(common::Decoder& dec) override {
    return proto_->decode_state(dec) && dec.done();
  }

  SubscriberProtocol& protocol() { return *proto_; }
  const SubscriberProtocol& protocol() const { return *proto_; }

 protected:
  SubscriberNode(sim::NodeId supervisor, sim::NodeKind kind)
      : sim::Node(kind), supervisor_(supervisor) {}

 private:
  sim::NodeId supervisor_;
  // Embedded by value (not unique_ptr): protocol state lives inside the
  // node object, one cache-local block per node.
  std::optional<DirectSink> sink_;
  std::optional<SubscriberProtocol> proto_;
};

/// A network node running exactly one SupervisorProtocol instance.
class SupervisorNode : public sim::Node {
 public:
  SupervisorNode() : sim::Node(sim::NodeKind::kSupervisor) {}

  static bool classof(sim::NodeKind k) { return k == sim::NodeKind::kSupervisor; }

  void handle(sim::PooledMsg msg) override { proto_->handle(*msg); }
  void timeout() override { proto_->timeout(); }
  void collect_refs(std::vector<sim::NodeId>& out) const override {
    if (proto_) proto_->collect_refs(out);
  }
  void on_register() override {
    sink_.emplace(net());
    proto_.emplace(id(), *sink_);
  }
  bool snapshot_state(common::Encoder& enc) const override {
    proto_->encode_state(enc);
    return true;
  }
  bool restore_state(common::Decoder& dec) override {
    return proto_->decode_state(dec) && dec.done();
  }

  SupervisorProtocol& protocol() { return *proto_; }
  const SupervisorProtocol& protocol() const { return *proto_; }

 private:
  std::optional<DirectSink> sink_;
  std::optional<SupervisorProtocol> proto_;
};

/// One supervised skip ring: supervisor + subscribers + failure detector.
class SkipRingSystem {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Failure-detector delay in rounds (0 = perfect detector).
    sim::Round fd_delay = 0;
  };

  SkipRingSystem() : SkipRingSystem(Options{}) {}
  explicit SkipRingSystem(const Options& options);

  sim::Network& net() { return net_; }
  const sim::Network& net() const { return net_; }

  sim::NodeId supervisor_id() const { return supervisor_id_; }
  SupervisorProtocol& supervisor();
  const SupervisorProtocol& supervisor() const;

  /// The supervisor's failure detector; scenarios retune its delay mid-run
  /// to model degrading/improving crash detection.
  sim::FailureDetector& failure_detector() { return *fd_; }
  const sim::FailureDetector& failure_detector() const { return *fd_; }

  /// Spawns a fresh subscriber node; it subscribes on its first Timeout.
  sim::NodeId add_subscriber();

  /// Spawns `count` subscribers; returns their ids.
  std::vector<sim::NodeId> add_subscribers(std::size_t count);

  SubscriberProtocol& subscriber(sim::NodeId id);
  const SubscriberProtocol& subscriber(sim::NodeId id) const;

  /// All alive subscriber ids (excluding the supervisor), in id order.
  std::vector<sim::NodeId> subscriber_ids() const;

  /// Alive subscribers that are active members (not leaving/departed) —
  /// the set the database must converge to.
  std::vector<sim::NodeId> active_ids() const;

  void request_unsubscribe(sim::NodeId id);
  void crash(sim::NodeId id);

  /// Full legitimacy check: database consistent and matching the active
  /// set, every subscriber holding its database label, and every explicit
  /// edge equal to the SR(n) spec.
  ///
  /// Incremental: the check runs on a persistent per-node conformance
  /// cache. A node is re-verified against the cached SkipRingSpec only
  /// when its SubscriberProtocol::state_version() moved since its last
  /// check; the database-level facts revalidate only when the supervisor's
  /// db_version() or the network topology epoch (spawns/crashes) moved;
  /// and a live nonconforming count answers the converged steady state
  /// without touching any node. Convergence waits that probe every round
  /// therefore pay O(changed nodes) amortized instead of O(n log n) per
  /// round. Equivalence with the exhaustive check is CI-enforced by
  /// tests/core/probe_differential_test.cpp.
  bool topology_legit() const;

  /// Number of alive subscribers currently failing their conformance
  /// check, per the incremental probe (refreshed on call) — the per-round
  /// "how far from legitimate" telemetry signal. When the database-level
  /// facts themselves fail, the probe cannot attribute blame to
  /// individual nodes, so every alive subscriber counts as
  /// nonconforming.
  std::size_t nonconforming_count() const;

  /// Human-readable first violation ("" when legitimate). For diagnostics
  /// in tests: legitimacy is decided by the incremental probe, the message
  /// is recovered by the reference checker.
  std::string legitimacy_violation() const;

  /// The exhaustive O(n log n) reference checker (the pre-incremental
  /// implementation, kept verbatim): recomputes everything from scratch.
  /// The differential test runs it against topology_legit() on every round
  /// of scrambled executions.
  std::string legitimacy_violation_full() const;

  /// Convenience: run rounds until topology_legit() or max_rounds; returns
  /// rounds used (nullopt = did not converge).
  std::optional<std::size_t> run_until_legit(std::size_t max_rounds);

 private:
  /// Re-validates the database-level facts (consistency, values alive and
  /// non-supervisor) and rebuilds the flat label-index -> node assignment;
  /// returns whether the database passed. Runs only when the db/topology
  /// epoch moved.
  bool revalidate_database() const;
  /// Checks one subscriber against the cached spec and assignment; appends
  /// the reason to `why` when given (diagnostics path).
  bool node_conforms(sim::NodeId id, const SubscriberProtocol& sub,
                     std::ostream* why) const;
  /// The incremental probe behind topology_legit().
  bool probe_legit() const;

  sim::Network net_;
  sim::NodeId supervisor_id_;
  std::unique_ptr<sim::FailureDetector> fd_;
  /// SR(n) ground truth reused across legitimacy checks (convergence waits
  /// probe once per round; rebuilding the spec each time was O(n log n)).
  mutable std::unique_ptr<SkipRingSpec> spec_cache_;

  /// Persistent conformance cache of the incremental probe.
  struct ProbeState {
    /// Database-layer epoch key: supervisor db version + topology epoch
    /// (total slots, alive count) — the pair changes on every spawn or
    /// crash, covering "database references dead node" staleness.
    std::uint64_t db_version = 0;
    std::size_t slots_seen = 0;
    std::size_t alive_seen = 0;
    bool db_checked = false;
    bool db_ok = false;
    /// Canonical label index -> recorded node (valid while db_ok).
    std::vector<sim::NodeId> by_index;

    /// Per-node conformance entries, indexed by NodeId value - 1.
    struct Entry {
      std::uint64_t version = 0;  // state_version at last check (0 = never)
      bool active = false;
      bool conforms = false;
    };
    bool nodes_valid = false;
    std::vector<Entry> nodes;
    std::size_t active_count = 0;
    std::size_t nonconforming = 0;
  };
  mutable ProbeState probe_;
};

}  // namespace ssps::core
