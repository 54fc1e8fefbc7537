// Hierarchical topics (§1.3 extension): registry semantics and end-to-end
// subtree subscription over the multi-topic stack.
#include "pubsub/hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "pubsub/topics.hpp"

namespace ssps::pubsub {
namespace {

TEST(TopicHierarchy, AddRegistersAncestors) {
  TopicHierarchy h;
  h.add("sports/football/cup");
  EXPECT_TRUE(h.id_of("sports").has_value());
  EXPECT_TRUE(h.id_of("sports/football").has_value());
  EXPECT_TRUE(h.id_of("sports/football/cup").has_value());
  EXPECT_EQ(h.size(), 3u);
}

TEST(TopicHierarchy, IdsAreStableAndDistinct) {
  TopicHierarchy a;
  TopicHierarchy b;
  const TopicId x = a.add("news/tech");
  const TopicId y = b.add("news/tech");
  EXPECT_EQ(x, y);  // derived from the path hash: no coordination needed
  EXPECT_NE(a.add("news"), x);
}

TEST(TopicHierarchy, PathOfInvertsIdOf) {
  TopicHierarchy h;
  const TopicId id = h.add("a/b/c");
  EXPECT_EQ(h.path_of(id), "a/b/c");
  EXPECT_FALSE(h.path_of(424242).has_value());
}

TEST(TopicHierarchy, SubtreeReturnsSelfAndDescendants) {
  TopicHierarchy h;
  h.add("sports/football/cup");
  h.add("sports/football/league");
  h.add("sports/tennis");
  h.add("sportsmanship");  // similar prefix, different topic!
  h.add("news");

  const auto ids = h.subtree("sports/football");
  EXPECT_EQ(ids.size(), 3u);  // itself + cup + league
  const auto all_sports = h.subtree("sports");
  EXPECT_EQ(all_sports.size(), 5u);  // sports, football, cup, league, tennis
  // "sportsmanship" must NOT appear under "sports".
  for (TopicId id : all_sports) {
    EXPECT_NE(h.path_of(id), "sportsmanship");
  }
}

TEST(TopicHierarchy, SubtreeOfLeafIsItself) {
  TopicHierarchy h;
  h.add("a/b");
  const auto ids = h.subtree("a/b");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(h.path_of(ids[0]), "a/b");
}

TEST(TopicHierarchy, AncestorsWalkToRoot) {
  TopicHierarchy h;
  h.add("x/y/z");
  const auto ids = h.ancestors("x/y/z");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(h.path_of(ids[0]), "x/y/z");
  EXPECT_EQ(h.path_of(ids[1]), "x/y");
  EXPECT_EQ(h.path_of(ids[2]), "x");
}

TEST(TopicHierarchy, PathsSorted) {
  TopicHierarchy h;
  h.add("b");
  h.add("a/z");
  h.add("a");
  const auto paths = h.paths();
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
  EXPECT_EQ(paths.size(), 3u);
}

TEST(TopicHierarchyEndToEnd, SubtreeSubscriptionReceivesDescendantTraffic) {
  // A reader subscribing to "sports" (the whole subtree) receives
  // publications made into "sports/football", while a "news" reader does
  // not.
  sim::Network net(5);
  const auto sup = net.spawn<MultiTopicSupervisorNode>();
  TopicHierarchy h;
  h.add("sports/football");
  h.add("news");

  const auto fan = net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup));
  const auto journalist = net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup));
  const auto reader = net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup));

  // fan subscribes to the whole sports subtree.
  for (TopicId t : h.subtree("sports")) net.node_as<MultiTopicNode>(fan).subscribe(t);
  // journalist participates in football and news.
  net.node_as<MultiTopicNode>(journalist).subscribe(*h.id_of("sports/football"));
  net.node_as<MultiTopicNode>(journalist).subscribe(*h.id_of("news"));
  // reader follows news only.
  net.node_as<MultiTopicNode>(reader).subscribe(*h.id_of("news"));

  net.run_units(60);
  net.node_as<MultiTopicNode>(journalist)
      .publish(*h.id_of("sports/football"), "matchday!");
  net.run_units(40);

  EXPECT_EQ(net.node_as<MultiTopicNode>(fan)
                .pubsub(*h.id_of("sports/football"))
                .trie()
                .size(),
            1u);
  EXPECT_FALSE(net.node_as<MultiTopicNode>(reader).subscribed(
      *h.id_of("sports/football")));
  EXPECT_EQ(net.node_as<MultiTopicNode>(reader).pubsub(*h.id_of("news")).trie().size(),
            0u);
}

TEST(TopicHierarchyEndToEnd, HierarchyComposesWithSupervisorGroup) {
  // Subtree rings can live on different supervisors; the client-side
  // resolution layer doesn't care.
  sim::Network net(8);
  const auto s1 = net.spawn<MultiTopicSupervisorNode>();
  const auto s2 = net.spawn<MultiTopicSupervisorNode>();
  SupervisorGroup group({s1, s2});
  auto resolver = [&group](TopicId t) { return group.supervisor_for(t); };
  TopicHierarchy h;
  h.add("root/a");
  h.add("root/b");
  const auto client = net.spawn<MultiTopicNode>(resolver);
  for (TopicId t : h.subtree("root")) net.node_as<MultiTopicNode>(client).subscribe(t);
  net.run_units(50);
  for (TopicId t : h.subtree("root")) {
    const auto* sup_node =
        &net.node_as<MultiTopicSupervisorNode>(group.supervisor_for(t));
    ASSERT_NE(sup_node->find_topic(t), nullptr);
    EXPECT_EQ(sup_node->find_topic(t)->size(), 1u);
  }
}

}  // namespace
}  // namespace ssps::pubsub
