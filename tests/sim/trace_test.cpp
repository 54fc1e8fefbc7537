// Trace tooling tests.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

namespace ssps::sim {
namespace {

TEST(Trace, RecordsAndFormats) {
  Trace t;
  t.record(1, NodeId{2}, NodeId{3}, "Check");
  t.record(2, NodeId{3}, NodeId{2}, "Introduce");
  ASSERT_EQ(t.events().size(), 2u);
  const TraceEvent& first = t.events().front();
  EXPECT_EQ(first.round, 1u);
  EXPECT_EQ(first.from, NodeId{2});
  EXPECT_EQ(first.to, NodeId{3});
  EXPECT_EQ(t.label_name(first.label), "Check");
  const TraceEvent& second = t.events().back();
  EXPECT_EQ(second.round, 2u);
  EXPECT_EQ(second.from, NodeId{3});
  EXPECT_EQ(second.to, NodeId{2});
  EXPECT_EQ(t.label_name(second.label), "Introduce");
}

TEST(Trace, BoundedCapacityDropsOldest) {
  Trace t(3);
  for (int i = 0; i < 10; ++i) {
    t.record(static_cast<Round>(i), NodeId{1}, NodeId{2}, "e" + std::to_string(i));
  }
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);
  EXPECT_EQ(t.label_name(t.events().front().label), "e7");
  EXPECT_EQ(t.events().front().round, 7u);
  EXPECT_EQ(t.label_name(t.events().back().label), "e9");
}

TEST(Trace, InternsLabelsToStableDenseIds) {
  Trace t;
  const std::uint32_t a = t.intern("A");
  const std::uint32_t b = t.intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("A"), a);  // idempotent
  EXPECT_EQ(t.label_name(a), "A");
  t.record(1, NodeId{1}, NodeId{2}, "A");
  EXPECT_EQ(t.events().back().label, a);
}

TEST(Trace, RecordsKindAndFlowCorrelation) {
  Trace t;
  t.record(1, NodeId{1}, NodeId{2}, "Publish", TraceEventKind::kSend, 42);
  t.record(2, NodeId::null(), NodeId{2}, "Publish", TraceEventKind::kDeliver, 42);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events().front().kind, TraceEventKind::kSend);
  EXPECT_EQ(t.events().back().kind, TraceEventKind::kDeliver);
  EXPECT_EQ(t.events().front().flow, t.events().back().flow);
}

}  // namespace
}  // namespace ssps::sim
