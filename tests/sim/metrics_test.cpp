// Tests for message accounting (src/sim/metrics.hpp).
#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/network.hpp"

namespace ssps::sim {
namespace {

TEST(Metrics, CountsSendsPerLabel) {
  Metrics m;
  m.on_send("A", 10, NodeId{1});
  m.on_send("A", 20, NodeId{2});
  m.on_send("B", 5, NodeId{1});
  EXPECT_EQ(m.total_sent(), 3u);
  EXPECT_EQ(m.total_bytes(), 35u);
  EXPECT_EQ(m.sent("A"), 2u);
  EXPECT_EQ(m.sent_bytes("A"), 30u);
  EXPECT_EQ(m.sent("B"), 1u);
  EXPECT_EQ(m.sent("C"), 0u);
}

TEST(Metrics, CountsDeliveriesPerNode) {
  Metrics m;
  m.on_deliver("A", NodeId{1});
  m.on_deliver("A", NodeId{1});
  m.on_deliver("B", NodeId{1});
  m.on_deliver("A", NodeId{2});
  EXPECT_EQ(m.received_by(NodeId{1}), 3u);
  EXPECT_EQ(m.received_by(NodeId{1}, "A"), 2u);
  EXPECT_EQ(m.received_by(NodeId{1}, "B"), 1u);
  EXPECT_EQ(m.received_by(NodeId{2}), 1u);
  EXPECT_EQ(m.received_by(NodeId{3}), 0u);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m;
  m.on_send("A", 10, NodeId{1});
  m.on_deliver("A", NodeId{1});
  m.reset();
  EXPECT_EQ(m.total_sent(), 0u);
  EXPECT_EQ(m.total_bytes(), 0u);
  EXPECT_EQ(m.sent("A"), 0u);
  EXPECT_EQ(m.received_by(NodeId{1}), 0u);
  EXPECT_TRUE(m.by_label().empty());
}

TEST(Metrics, ByLabelIsSortedForStableOutput) {
  Metrics m;
  m.on_send("Zeta", 1, NodeId{1});
  m.on_send("Alpha", 1, NodeId{1});
  m.on_send("Mid", 1, NodeId{1});
  std::vector<std::string> names;
  for (const auto& [name, counter] : m.by_label()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"Alpha", "Mid", "Zeta"}));
}

TEST(Metrics, ByLabelViewRevalidatesAcrossSendsAndResets) {
  Metrics m;
  m.on_send("A", 10, NodeId{1});
  const auto& first = m.by_label();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].second.count, 1u);

  // New traffic must show up on the next call.
  m.on_send("A", 10, NodeId{1});
  m.on_send("B", 5, NodeId{2});
  const auto& second = m.by_label();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].first, "A");
  EXPECT_EQ(second[0].second.count, 2u);
  EXPECT_EQ(second[1].first, "B");

  // reset() invalidates even though the running totals start over (the
  // fresh window must never alias a cached view from an old one).
  m.reset();
  EXPECT_TRUE(m.by_label().empty());
  m.on_send("C", 1, NodeId{1});
  ASSERT_EQ(m.by_label().size(), 1u);
  EXPECT_EQ(m.by_label()[0].first, "C");
}

TEST(Metrics, SentByCountsPerTargetOfferedLoad) {
  Metrics m;
  m.on_send("A", 10, NodeId{1});
  m.on_send("A", 10, NodeId{1});
  m.on_send("B", 5, NodeId{7});
  EXPECT_EQ(m.sent_by(NodeId{1}), 2u);
  EXPECT_EQ(m.sent_by(NodeId{7}), 1u);
  EXPECT_EQ(m.sent_by(NodeId{2}), 0u);
  EXPECT_EQ(m.sent_by(NodeId::null()), 0u);
  m.reset();
  EXPECT_EQ(m.sent_by(NodeId{1}), 0u);
}

TEST(Metrics, SentByFoldsAcrossShards) {
  Metrics a, b;
  a.on_send("A", 1, NodeId{3});
  b.on_send("A", 1, NodeId{3});
  b.on_send("B", 1, NodeId{9});  // forces the destination table to grow
  b.fold_into(a);
  EXPECT_EQ(a.sent_by(NodeId{3}), 2u);
  EXPECT_EQ(a.sent_by(NodeId{9}), 1u);
}

TEST(Metrics, NetworkIntegrationTracksWireSizes) {
  struct Sized final : MsgBase<Sized> {
    std::string_view name() const override { return "Sized"; }
    std::size_t wire_size() const override { return 123; }
  };
  struct Sink final : Node {
    void handle(PooledMsg) override {}
    void timeout() override {}
  };
  Network net(1);
  const NodeId a = net.spawn<Sink>();
  net.emit<Sized>(a);
  EXPECT_EQ(net.metrics().sent("Sized"), 1u);
  EXPECT_EQ(net.metrics().sent_bytes("Sized"), 123u);
  net.run_unit();
  EXPECT_EQ(net.metrics().received_by(a, "Sized"), 1u);
}

TEST(Metrics, SendsToDeadNodesAreStillCounted) {
  // The sender pays for the message whether or not the target lives — the
  // supervisor-overhead experiments rely on sender-side counting.
  struct Sink final : Node {
    void handle(PooledMsg) override {}
    void timeout() override {}
  };
  struct Sized final : MsgBase<Sized> {
    std::string_view name() const override { return "Sized"; }
  };
  Network net(2);
  const NodeId a = net.spawn<Sink>();
  net.crash(a);
  net.emit<Sized>(a);
  EXPECT_EQ(net.metrics().sent("Sized"), 1u);
  // ...and the per-target table attributes it: the gap between sent_by
  // and received_by is exactly the swallowed-to-dead traffic.
  EXPECT_EQ(net.metrics().sent_by(a), 1u);
  EXPECT_EQ(net.metrics().received_by(a), 0u);
}

}  // namespace
}  // namespace ssps::sim
