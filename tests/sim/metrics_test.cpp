// Tests for message accounting (src/sim/metrics.hpp).
#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/network.hpp"

namespace ssps::sim {
namespace {

/// A message whose wire size is set per instance. Each subclass is its
/// own MsgTypeId, and so its own row in the counters.
template <typename Self>
struct Sized : MsgBase<Self> {
  explicit Sized(std::size_t b = 16) : bytes(b) {}
  std::size_t wire_size() const override { return bytes; }
  std::size_t bytes;
};

struct A final : Sized<A> {
  using Sized<A>::Sized;
  std::string_view name() const override { return "A"; }
};
struct B final : Sized<B> {
  using Sized<B>::Sized;
  std::string_view name() const override { return "B"; }
};
struct C final : Sized<C> {
  using Sized<C>::Sized;
  std::string_view name() const override { return "C"; }
};
// Two distinct types under one label.
struct TwinA final : Sized<TwinA> {
  using Sized<TwinA>::Sized;
  std::string_view name() const override { return "Twin"; }
};
struct TwinB final : Sized<TwinB> {
  using Sized<TwinB>::Sized;
  std::string_view name() const override { return "Twin"; }
};

struct Sink final : Node {
  void handle(PooledMsg) override {}
  void timeout() override {}
};

TEST(Metrics, CountsSendsPerLabel) {
  Metrics m;
  m.on_send(A(10));
  m.on_send(A(20));
  m.on_send(B(5));
  EXPECT_EQ(m.total_sent(), 3u);
  EXPECT_EQ(m.total_bytes(), 35u);
  EXPECT_EQ(m.sent("A"), 2u);
  EXPECT_EQ(m.sent("B"), 1u);
  EXPECT_EQ(m.sent("C"), 0u);
  ASSERT_EQ(m.by_label().size(), 2u);
  EXPECT_EQ(m.by_label()[0].second.bytes, 30u);
  EXPECT_EQ(m.by_label()[1].second.bytes, 5u);
}

TEST(Metrics, CountsDeliveriesPerNode) {
  Metrics m;
  m.on_deliver(NodeId{1});
  m.on_deliver(NodeId{1});
  m.on_deliver(NodeId{2});
  m.on_deliver(NodeId{1});
  m.on_deliver(NodeId{40});  // grows the table past its first size
  EXPECT_EQ(m.total_delivered(), 5u);
  EXPECT_EQ(m.received_by(NodeId{1}), 3u);
  EXPECT_EQ(m.received_by(NodeId{2}), 1u);
  EXPECT_EQ(m.received_by(NodeId{3}), 0u);
  EXPECT_EQ(m.received_by(NodeId{40}), 1u);
  EXPECT_EQ(m.received_by(NodeId{1000}), 0u);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m;
  m.on_send(A(10));
  m.on_deliver(NodeId{1});
  m.reset();
  EXPECT_EQ(m.total_sent(), 0u);
  EXPECT_EQ(m.total_bytes(), 0u);
  EXPECT_EQ(m.total_delivered(), 0u);
  EXPECT_EQ(m.sent("A"), 0u);
  EXPECT_EQ(m.received_by(NodeId{1}), 0u);
  EXPECT_TRUE(m.by_label().empty());
}

TEST(Metrics, ByLabelIsSortedForStableOutput) {
  Metrics m;
  m.on_send(C());
  m.on_send(A());
  m.on_send(B());
  std::vector<std::string> names;
  for (const auto& [name, counter] : m.by_label()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"A", "B", "C"}));
}

TEST(Metrics, ByLabelViewRevalidatesAcrossSendsAndResets) {
  Metrics m;
  m.on_send(A(10));
  const auto& first = m.by_label();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].second.count, 1u);

  // New traffic must show up on the next call.
  m.on_send(A(10));
  m.on_send(B(5));
  const auto& second = m.by_label();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].first, "A");
  EXPECT_EQ(second[0].second.count, 2u);
  EXPECT_EQ(second[1].first, "B");

  // reset() invalidates even though the running totals start over (the
  // fresh window must never alias a cached view from an old one).
  m.reset();
  EXPECT_TRUE(m.by_label().empty());
  m.on_send(C(1));
  ASSERT_EQ(m.by_label().size(), 1u);
  EXPECT_EQ(m.by_label()[0].first, "C");
}

TEST(Metrics, TypesSharingANameShareOneLabel) {
  // Rows are keyed by type, reports by name: distinct types with one
  // name() must read as one label, also after a shard fold.
  Metrics m;
  Metrics shard;
  m.on_send(TwinA(3));
  m.on_send(TwinB(4));
  shard.on_send(TwinB(4));
  shard.fold_into(m);
  ASSERT_EQ(m.by_label().size(), 1u);
  EXPECT_EQ(m.by_label()[0].first, "Twin");
  EXPECT_EQ(m.by_label()[0].second.count, 3u);
  EXPECT_EQ(m.by_label()[0].second.bytes, 11u);
  EXPECT_EQ(m.sent("Twin"), 3u);
}

TEST(Metrics, NetworkIntegrationTracksWireSizes) {
  Network net(1);
  const NodeId a = net.spawn<Sink>();
  net.emit<A>(a, 123);
  EXPECT_EQ(net.metrics().sent("A"), 1u);
  ASSERT_EQ(net.metrics().by_label().size(), 1u);
  EXPECT_EQ(net.metrics().by_label()[0].second.bytes, 123u);
  net.run_unit();
  EXPECT_EQ(net.metrics().received_by(a), 1u);
}

TEST(Metrics, SendsToDeadNodesAreStillCounted) {
  // The sender pays for the message whether or not the target lives — the
  // supervisor-overhead experiments rely on sender-side counting.
  Network net(2);
  const NodeId a = net.spawn<Sink>();
  net.crash(a);
  net.emit<A>(a);
  // Sends to ids the slot table never handed out count too, however large
  // (a garbage reference decoded from a corrupted message), and no
  // per-node table grows for them.
  net.emit<A>(NodeId{a.value + 1});
  net.emit<A>(NodeId{~std::uint64_t{0}});
  EXPECT_EQ(net.metrics().sent("A"), 3u);
  EXPECT_EQ(net.metrics().total_sent(), 3u);
  net.run_unit();
  EXPECT_EQ(net.metrics().total_delivered(), 0u);
  EXPECT_EQ(net.metrics().received_by(a), 0u);
}

}  // namespace
}  // namespace ssps::sim
