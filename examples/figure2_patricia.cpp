// Reproduces Figure 2 and the §4.2 worked example: two subscribers u and v
// with Patricia tries over publications P1..P4 (keys 000, 010, 100, 101),
// v missing P4. Walks through both exchange directions message by message
// and shows how v obtains P4 via CheckAndPublish.
//
//   $ ./examples/figure2_patricia
#include <cstdio>
#include <deque>

#include "common/rng.hpp"
#include "pubsub/pubsub_node.hpp"

using namespace ssps;
using namespace ssps::core;
using namespace ssps::pubsub;

namespace {

constexpr sim::NodeId kU{1};
constexpr sim::NodeId kV{2};

struct LoggingSink final : MessageSink {
  sim::MessagePool msg_pool;  // declared before the queue that drains into it
  std::deque<std::pair<sim::NodeId, sim::PooledMsg>> queue;
  void send(sim::NodeId to, sim::PooledMsg msg) override {
    std::printf("    %s -> subscriber %s\n", std::string(msg->name()).c_str(),
                to == kU ? "u" : "v");
    queue.emplace_back(to, std::move(msg));
  }
  sim::MessagePool& pool() override { return msg_pool; }
};

void print_trie(const char* who, const PatriciaTrie& t) {
  std::printf("  %s.T: %zu publications, root hash %.16s...\n", who, t.size(),
              t.root() ? to_hex(t.root()->hash).c_str() : "(empty)");
  for (const Publication& p : t.all()) {
    std::printf("    key %s  payload \"%.*s\"\n", t.key_of(p).to_string().c_str(),
                static_cast<int>(p.payload.size()), p.payload.data());
  }
}

}  // namespace

int main() {
  std::printf("== Figure 2: Patricia-trie anti-entropy ==\n\n");

  LoggingSink sink;
  Rng rng_u(1);
  Rng rng_v(2);
  SubscriberProtocol u_over(kU, sim::NodeId{9}, sink, rng_u);
  SubscriberProtocol v_over(kV, sim::NodeId{9}, sink, rng_v);
  u_over.chaos_set_label(*Label::parse("0"));
  v_over.chaos_set_label(*Label::parse("1"));
  u_over.chaos_set_right(LabeledRef{*Label::parse("1"), kV});
  v_over.chaos_set_left(LabeledRef{*Label::parse("0"), kU});

  const PubSubConfig cfg{.key_bits = 3, .flooding = false, .anti_entropy = true};
  PubSubProtocol u(u_over, sink, rng_u, cfg);
  PubSubProtocol v(v_over, sink, rng_v, cfg);

  // Find payloads whose 3-bit keys are exactly the figure's 000/010/100/101.
  auto with_key = [&](const char* key) {
    for (std::uint64_t salt = 0;; ++salt) {
      Publication p{sim::NodeId{7}, "P" + std::to_string(salt)};
      if (u.trie().key_of(p).to_string() == key) return p;
    }
  };
  const Publication p1 = with_key("000");
  const Publication p2 = with_key("010");
  const Publication p3 = with_key("100");
  const Publication p4 = with_key("101");

  for (const auto& p : {p1, p2, p3, p4}) u.add_local(p);
  for (const auto& p : {p1, p2, p3}) v.add_local(p);

  std::printf("Initial state (v misses P4):\n");
  print_trie("u", u.trie());
  print_trie("v", v.trie());

  auto pump = [&] {
    while (!sink.queue.empty()) {
      auto [to, msg] = std::move(sink.queue.front());
      sink.queue.pop_front();
      ((to == kU) ? u : v).handle(*msg);
    }
  };

  std::printf("\n-- Direction 1: u sends CheckTrie(u, root) to v --\n");
  std::printf("  (the paper: this direction ends at u with equal hashes)\n");
  u.timeout();
  pump();
  std::printf("  result: v still has %zu publications (difference not found)\n",
              v.trie().size());

  std::printf("\n-- Direction 2: v sends CheckTrie(v, root) to u --\n");
  std::printf("  (u spots the missing node '10' and v requests prefix 101)\n");
  v.timeout();
  pump();
  std::printf("  result: v now has %zu publications\n", v.trie().size());

  std::printf("\nFinal state:\n");
  print_trie("u", u.trie());
  print_trie("v", v.trie());
  std::printf("\ntries equal: %s — \"it is important at which subscriber the\n"
              "initial CheckTrie request is started\" (§4.2), which is why the\n"
              "protocol alternates initiators every Timeout.\n",
              u.trie().equal_contents(v.trie()) ? "yes" : "NO");
  return u.trie().equal_contents(v.trie()) ? 0 : 1;
}
