// Chat groups: group communication (the paper's §1 application) with a
// deliberately induced split-brain. Two halves of a chat room end up as
// two independent rings with conflicting labels; self-stabilization merges
// them back and the message history converges everywhere.
//
//   $ ./examples/chat_groups
#include <cstdio>

#include "core/chaos.hpp"
#include "pubsub/pubsub_node.hpp"

using namespace ssps;
using namespace ssps::core;
using namespace ssps::pubsub;

int main() {
  std::printf("== Chat group with split-brain recovery ==\n\n");

  PubSubConfig cfg;
  cfg.flooding = true;
  PubSubSystem room(SkipRingSystem::Options{.seed = 99, .fd_delay = 0}, cfg);
  const auto members = room.add_pubsub_subscribers(10);
  room.run_until_legit(1000);
  std::printf("chat room of %zu members converged.\n", members.size());

  room.pubsub(members[0]).publish("alice: hi everyone");
  room.pubsub(members[3]).publish("dave: hey alice");
  room.net().run_until([&] { return room.publications_converged(); }, 200);
  std::printf("2 messages delivered to all members.\n\n");

  // Catastrophe: the room splits into two independent overlays with
  // conflicting labels (e.g. after a long partition healed), and only one
  // half is still recorded at the supervisor.
  std::printf("splitting the room into two independent rings ...\n");
  split_brain(room, 4242);
  std::printf("topology legitimate now? %s\n",
              room.topology_legit() ? "yes?!" : "no (as expected)");

  // People keep chatting into their half of the partition.
  room.pubsub(members[1]).publish("bob: anyone there?");
  room.pubsub(members[8]).publish("heidi: weird, the room looks empty");

  const auto heal = room.net().run_until(
      [&] { return room.topology_legit() && room.publications_converged(); }, 5000);
  std::printf("self-stabilized after %zu rounds: one ring, one history.\n\n", *heal);

  std::printf("every member now holds all %zu messages:\n",
              room.distinct_publications());
  const auto& trie = room.pubsub(members[0]).trie();
  for (const Publication& p : trie.all()) {
    std::printf("  [%s] %.*s\n", trie.key_of(p).prefix(8).to_string().c_str(),
                static_cast<int>(p.payload.size()), p.payload.data());
  }
  std::printf("\n(Message order is by publication key — the store is a set, as in\n"
              "the paper; ordering/threading would be an application concern.)\n");
  return room.topology_legit() ? 0 : 1;
}
