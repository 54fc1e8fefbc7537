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
  const std::string text = t.to_text();
  EXPECT_NE(text.find("[r1] 2 -> 3 : Check"), std::string::npos);
  EXPECT_NE(text.find("[r2] 3 -> 2 : Introduce"), std::string::npos);
}

TEST(Trace, BoundedCapacityDropsOldest) {
  Trace t(3);
  for (int i = 0; i < 10; ++i) {
    t.record(static_cast<Round>(i), NodeId{1}, NodeId{2}, "e" + std::to_string(i));
  }
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);
  EXPECT_EQ(t.label_name(t.events().front().label), "e7");
  EXPECT_NE(t.to_text().find("7 earlier events dropped"), std::string::npos);
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
  // Interning survives clear(): ids recorded before and after agree.
  t.clear();
  t.record(2, NodeId{1}, NodeId{2}, "A");
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

TEST(Trace, FilterByLabel) {
  Trace t;
  t.record(1, NodeId{1}, NodeId{2}, "A");
  t.record(2, NodeId{1}, NodeId{2}, "B");
  t.record(3, NodeId{1}, NodeId{2}, "A");
  EXPECT_EQ(t.filter("A").size(), 2u);
  EXPECT_EQ(t.filter("C").size(), 0u);
}

TEST(Trace, ClearResets) {
  Trace t(2);
  t.record(1, NodeId{1}, NodeId{2}, "x");
  t.record(2, NodeId{1}, NodeId{2}, "y");
  t.record(3, NodeId{1}, NodeId{2}, "z");
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

}  // namespace
}  // namespace ssps::sim
