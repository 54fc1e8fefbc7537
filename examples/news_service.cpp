// News service: the paper's motivating application (§1) — a topic-based
// news feed with multiple topics sharded over two supervisors by
// consistent hashing, reader churn, and late subscribers catching up on
// archived stories.
//
//   $ ./examples/news_service
#include <cstdio>
#include <string>
#include <vector>

#include "pubsub/topics.hpp"

using namespace ssps;
using namespace ssps::pubsub;

namespace {

constexpr TopicId kPolitics = 1;
constexpr TopicId kSports = 2;
constexpr TopicId kTech = 3;

const char* topic_name(TopicId t) {
  switch (t) {
    case kPolitics:
      return "politics";
    case kSports:
      return "sports";
    default:
      return "tech";
  }
}

}  // namespace

int main() {
  std::printf("== News service over supervised skip rings ==\n\n");
  sim::Network net(7);

  // Two supervisor processes share the topics via consistent hashing
  // (the §1.3 scalability strategy).
  const auto sup_a = net.spawn<MultiTopicSupervisorNode>();
  const auto sup_b = net.spawn<MultiTopicSupervisorNode>();
  SupervisorGroup group({sup_a, sup_b});
  auto resolver = [&group](TopicId t) { return group.supervisor_for(t); };
  for (TopicId t : {kPolitics, kSports, kTech}) {
    std::printf("topic %-8s -> supervisor %llu\n", topic_name(t),
                static_cast<unsigned long long>(group.supervisor_for(t).value));
  }

  // Twelve readers with mixed interests.
  std::vector<sim::NodeId> readers;
  for (int i = 0; i < 12; ++i) readers.push_back(net.spawn<MultiTopicNode>(resolver));
  auto reader = [&](std::size_t i) -> MultiTopicNode& {
    return net.node_as<MultiTopicNode>(readers[i]);
  };
  for (std::size_t i = 0; i < readers.size(); ++i) {
    reader(i).subscribe(kPolitics);
    if (i % 2 == 0) reader(i).subscribe(kSports);
    if (i % 3 == 0) reader(i).subscribe(kTech);
  }
  net.run_units(60);
  std::printf("\n12 readers subscribed (politics: 12, sports: 6, tech: 4).\n");

  // Publishers break stories.
  reader(0).publish(kPolitics, "election results are in");
  reader(2).publish(kSports, "cup final goes to penalties");
  reader(3).publish(kTech, "new skip-ring release ships");
  reader(0).publish(kPolitics, "coalition talks begin");
  net.run_units(50);

  auto coverage = [&](TopicId t) {
    std::size_t subscribed = 0;
    std::size_t complete = 0;
    std::size_t stories = 0;
    for (std::size_t i = 0; i < readers.size(); ++i) {
      if (!reader(i).subscribed(t)) continue;
      ++subscribed;
      stories = std::max(stories, reader(i).pubsub(t).trie().size());
    }
    for (std::size_t i = 0; i < readers.size(); ++i) {
      if (reader(i).subscribed(t) && reader(i).pubsub(t).trie().size() == stories) {
        ++complete;
      }
    }
    std::printf("  %-8s: %zu/%zu readers hold all %zu stories\n", topic_name(t),
                complete, subscribed, stories);
  };
  std::printf("\nCoverage after dissemination:\n");
  for (TopicId t : {kPolitics, kSports, kTech}) coverage(t);

  // Churn: two readers drop sports, one new reader arrives late and still
  // receives the archived sports story through trie anti-entropy.
  std::printf("\nChurn: readers 0 and 4 leave sports; a latecomer joins.\n");
  reader(0).unsubscribe(kSports);
  reader(4).unsubscribe(kSports);
  const auto late = net.spawn<MultiTopicNode>(resolver);
  net.node_as<MultiTopicNode>(late).subscribe(kSports);
  net.run_units(80);

  auto& latecomer = net.node_as<MultiTopicNode>(late);
  std::printf("latecomer holds %zu archived sports stor%s; reader 0 subscribed to "
              "sports: %s\n",
              latecomer.pubsub(kSports).trie().size(),
              latecomer.pubsub(kSports).trie().size() == 1 ? "y" : "ies",
              reader(0).subscribed(kSports) ? "still?!" : "no");

  std::printf("\nSupervisor message load stayed flat: supervisors received %llu + %llu\n"
              "messages total while %llu publications were disseminated peer-to-peer.\n",
              static_cast<unsigned long long>(net.metrics().received_by(sup_a)),
              static_cast<unsigned long long>(net.metrics().received_by(sup_b)),
              static_cast<unsigned long long>(net.metrics().sent("PublishNew")));
  return 0;
}
