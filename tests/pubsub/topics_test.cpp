// Multi-topic layer (§4): per-topic protocol instances, isolation between
// topics, unsubscribe lifecycle, and multi-supervisor deployments.
#include <gtest/gtest.h>

#include "pubsub/topics.hpp"

namespace ssps::pubsub {
namespace {

class TopicsTest : public ::testing::Test {
 protected:
  sim::Network net{42};
  sim::NodeId sup = net.spawn<MultiTopicSupervisorNode>();
  std::vector<sim::NodeId> clients;

  MultiTopicNode& client(std::size_t i) {
    return net.node_as<MultiTopicNode>(clients[i]);
  }

  void spawn_clients(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      clients.push_back(net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup)));
    }
  }

  bool topic_converged(TopicId topic, std::size_t expected_pubs) {
    for (sim::NodeId id : clients) {
      auto& c = net.node_as<MultiTopicNode>(id);
      if (!c.subscribed(topic)) continue;
      if (c.pubsub(topic).trie().size() != expected_pubs) return false;
    }
    return true;
  }
};

TEST_F(TopicsTest, SubscribersJoinPerTopic) {
  spawn_clients(6);
  for (std::size_t i = 0; i < 6; ++i) client(i).subscribe(1);
  net.run_units(40);
  auto* sup_node = &net.node_as<MultiTopicSupervisorNode>(sup);
  ASSERT_NE(sup_node->find_topic(1), nullptr);
  EXPECT_EQ(sup_node->find_topic(1)->size(), 6u);
  EXPECT_TRUE(sup_node->find_topic(1)->database_consistent());
}

TEST_F(TopicsTest, TopicsAreIsolated) {
  spawn_clients(8);
  for (std::size_t i = 0; i < 8; ++i) client(i).subscribe(1);
  for (std::size_t i = 0; i < 4; ++i) client(i).subscribe(2);
  net.run_units(60);
  client(0).publish(2, "only-for-topic-2");
  net.run_units(40);
  EXPECT_TRUE(topic_converged(2, 1));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(client(i).pubsub(1).trie().size(), 0u) << "leak into topic 1";
  }
}

TEST_F(TopicsTest, PublishReachesAllTopicSubscribers) {
  spawn_clients(10);
  for (std::size_t i = 0; i < 10; ++i) client(i).subscribe(7);
  net.run_units(60);
  client(3).publish(7, "hello");
  client(5).publish(7, "world");
  net.run_units(60);
  EXPECT_TRUE(topic_converged(7, 2));
}

TEST_F(TopicsTest, UnsubscribeRemovesInstanceAndLabels) {
  spawn_clients(5);
  for (std::size_t i = 0; i < 5; ++i) client(i).subscribe(3);
  net.run_units(50);
  client(2).unsubscribe(3);
  net.run_units(60);
  EXPECT_FALSE(client(2).subscribed(3));
  auto* topic = net.node_as<MultiTopicSupervisorNode>(sup).find_topic(3);
  ASSERT_NE(topic, nullptr);
  EXPECT_EQ(topic->size(), 4u);
  EXPECT_TRUE(topic->database_consistent());
}

TEST_F(TopicsTest, StaleTrafficAfterUnsubscribeIsAnswredWithRemoval) {
  spawn_clients(4);
  for (std::size_t i = 0; i < 4; ++i) client(i).subscribe(1);
  net.run_units(50);
  client(0).unsubscribe(1);
  net.run_units(80);
  // Nobody references the departed client in topic 1 anymore.
  for (std::size_t i = 1; i < 4; ++i) {
    std::vector<sim::NodeId> refs;
    client(i).overlay(1).collect_refs(refs);
    for (sim::NodeId r : refs) EXPECT_NE(r, clients[0]);
  }
}

TEST_F(TopicsTest, NodeCanRejoinATopicAfterLeaving) {
  spawn_clients(4);
  for (std::size_t i = 0; i < 4; ++i) client(i).subscribe(1);
  net.run_units(50);
  client(1).publish(1, "before-leave");
  net.run_units(30);
  client(0).unsubscribe(1);
  net.run_units(60);
  ASSERT_FALSE(client(0).subscribed(1));
  client(0).subscribe(1);  // fresh instance, new label, history re-synced
  net.run_units(80);
  ASSERT_TRUE(client(0).subscribed(1));
  EXPECT_EQ(client(0).pubsub(1).trie().size(), 1u);
}

TEST_F(TopicsTest, ManyTopicsOnOneSupervisorProcess) {
  spawn_clients(6);
  for (TopicId t = 1; t <= 10; ++t) {
    for (std::size_t i = 0; i < 6; ++i) client(i).subscribe(t);
  }
  net.run_units(80);
  auto& s = net.node_as<MultiTopicSupervisorNode>(sup);
  EXPECT_EQ(s.topic_count(), 10u);
  for (TopicId t = 1; t <= 10; ++t) {
    ASSERT_NE(s.find_topic(t), nullptr);
    EXPECT_EQ(s.find_topic(t)->size(), 6u) << "topic " << t;
  }
}

TEST(TopicsMultiSupervisor, TopicsShardAcrossSupervisors) {
  sim::Network net(7);
  const auto s1 = net.spawn<MultiTopicSupervisorNode>();
  const auto s2 = net.spawn<MultiTopicSupervisorNode>();
  const auto s3 = net.spawn<MultiTopicSupervisorNode>();
  SupervisorGroup group({s1, s2, s3});
  auto resolver = [&group](TopicId t) { return group.supervisor_for(t); };
  std::vector<sim::NodeId> clients;
  for (int i = 0; i < 6; ++i) clients.push_back(net.spawn<MultiTopicNode>(resolver));
  for (TopicId t = 1; t <= 30; ++t) {
    for (sim::NodeId c : clients) net.node_as<MultiTopicNode>(c).subscribe(t);
  }
  net.run_units(100);
  std::size_t total = 0;
  std::size_t nonempty_supervisors = 0;
  for (sim::NodeId s : {s1, s2, s3}) {
    const std::size_t count = net.node_as<MultiTopicSupervisorNode>(s).topic_count();
    total += count;
    if (count > 0) ++nonempty_supervisors;
  }
  EXPECT_EQ(total, 30u);
  EXPECT_GE(nonempty_supervisors, 2u);  // the hash spreads topics around
  // Each topic's ring actually converged at its own supervisor.
  for (TopicId t = 1; t <= 30; ++t) {
    const auto* topic =
        net.node_as<MultiTopicSupervisorNode>(group.supervisor_for(t)).find_topic(t);
    ASSERT_NE(topic, nullptr) << "topic " << t;
    EXPECT_EQ(topic->size(), clients.size()) << "topic " << t;
  }
}

/// Steady-state SetData messages per round sent by one supervisor that
/// serves `topics` topics, each subscribed by the same `subs_per_topic`
/// clients.
double supervisor_setdata_per_round(std::size_t topics, std::size_t subs_per_topic,
                                    std::uint64_t seed) {
  sim::Network net(seed);
  const auto sup = net.spawn<MultiTopicSupervisorNode>();
  std::vector<sim::NodeId> clients;
  for (std::size_t i = 0; i < subs_per_topic; ++i) {
    clients.push_back(net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup)));
  }
  for (TopicId t = 1; t <= topics; ++t) {
    for (sim::NodeId c : clients) net.node_as<MultiTopicNode>(c).subscribe(t);
  }
  net.run_units(80);  // converge every topic ring
  net.metrics().reset();
  const std::size_t window = 50;
  net.run_units(window);
  return static_cast<double>(net.metrics().sent("SetData")) / window;
}

// E13a / §1.3: the supervisor's message overhead is linear in the number
// of topics but not in the number of subscribers (Theorem 5 per topic
// ring). Over seeds 1-12 the 4 -> 16 topic ratio measured 3.84-4.19 and
// the 8 -> 32 subscriber ratio 0.99-1.07.
TEST(TopicsSupervisorLoad, LinearInTopicsFlatInSubscribers) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const double topics4 = supervisor_setdata_per_round(4, 8, seed);
    const double topics16 = supervisor_setdata_per_round(16, 8, seed);
    const double subs32 = supervisor_setdata_per_round(4, 32, seed);
    EXPECT_NEAR(topics16 / topics4, 4.0, 0.5) << "seed " << seed;
    EXPECT_NEAR(subs32 / topics4, 1.0, 0.15) << "seed " << seed;
  }
}

TEST(TopicEnvelope, KeepsInnerNameAndRefs) {
  sim::MessagePool pool;
  auto inner = pool.make<core::msg::Subscribe>(sim::NodeId{5});
  const TopicEnvelope env(3, std::move(inner));
  EXPECT_EQ(env.name(), "Subscribe");
  std::vector<sim::NodeId> refs;
  env.collect_refs(refs);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0], sim::NodeId{5});
  EXPECT_GT(env.wire_size(), core::msg::Subscribe(sim::NodeId{5}).wire_size());
}

}  // namespace
}  // namespace ssps::pubsub
