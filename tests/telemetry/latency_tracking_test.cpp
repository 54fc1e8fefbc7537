// End-to-end delivery-latency tracking through the publication stack:
// Publication::born stamping, the MessageSink round/delivery seam, and the
// Network's LatencyTracker.
#include <gtest/gtest.h>

#include "pubsub/pubsub_node.hpp"
#include "telemetry/latency.hpp"

namespace ssps::telemetry {
namespace {

TEST(LatencyTracking, EveryFirstReceiptIsRecordedOnce) {
  pubsub::PubSubSystem sys(
      core::SkipRingSystem::Options{.seed = 11, .fd_delay = 0});
  const auto ids = sys.add_pubsub_subscribers(8);
  ASSERT_TRUE(sys.run_until_legit(1000).has_value());
  EXPECT_EQ(sys.net().latency().count(), 0u);  // no publications yet

  sys.pubsub(ids[0]).publish("hello");
  ASSERT_TRUE(
      sys.net().run_until([&] { return sys.publications_converged(); }, 500));

  const LatencyTracker& lat = sys.net().latency();
  // Exactly one sample per subscriber: the origin (latency 0 by
  // definition) plus each other node's first receipt. Re-deliveries of an
  // already-known publication never record.
  EXPECT_EQ(lat.count(), ids.size());
  EXPECT_EQ(lat.global().percentile_permille(1), 0u);  // the origin's sample
  EXPECT_GE(lat.global().max(), 1u);   // someone needed a real hop
  EXPECT_LT(lat.global().max(), 100u); // flooding is O(log n) rounds
  // Single-topic systems record under kNoTopic: no per-topic rows.
  EXPECT_TRUE(lat.by_topic().empty());

  // Further anti-entropy traffic must not add samples.
  const std::uint64_t settled = lat.count();
  sys.net().run_units(20);
  EXPECT_EQ(sys.net().latency().count(), settled);
}

TEST(LatencyTracking, BornStampsRideTheWireButNotIdentity) {
  pubsub::Publication a{sim::NodeId{3}, "payload", 7};
  pubsub::Publication b{sim::NodeId{3}, "payload", 900};
  EXPECT_EQ(a, b);  // telemetry metadata is not identity...
  EXPECT_EQ(pubsub::msg::publication_bytes(a),
            pubsub::msg::publication_bytes(b));  // ...and not wire data
}

}  // namespace
}  // namespace ssps::telemetry
