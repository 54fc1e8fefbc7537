// Algorithm 5 anti-entropy between two subscribers, driven directly
// (no network): message-level walkthrough of the Figure 2 example and the
// three CheckTrie cases, plus Theorem 23's silence property.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "pubsub/pubsub_node.hpp"

namespace ssps::pubsub {
namespace {

/// Two PubSubProtocol instances with loopback queues.
class Pair {
 public:
  Pair() {
    // Minimal overlay: u and v are mutual ring neighbors.
    u_over_.chaos_set_label(*core::Label::parse("0"));
    v_over_.chaos_set_label(*core::Label::parse("1"));
    u_over_.chaos_set_right(core::LabeledRef{*core::Label::parse("1"), kV});
    u_over_.chaos_set_ring(core::LabeledRef{*core::Label::parse("1"), kV});
    v_over_.chaos_set_left(core::LabeledRef{*core::Label::parse("0"), kU});
    v_over_.chaos_set_ring(core::LabeledRef{*core::Label::parse("0"), kU});
  }

  /// Delivers every queued pub-sub message until quiescence; returns the
  /// number of messages exchanged (overlay messages are dropped).
  std::size_t pump(std::size_t limit = 10000) {
    std::size_t delivered = 0;
    while (!queue_.empty()) {
      auto [to, msg] = std::move(queue_.front());
      queue_.pop_front();
      PubSubProtocol& target = (to == kU) ? *u_ : *v_;
      if (target.handle(*msg)) ++delivered;
      if (--limit == 0) ADD_FAILURE() << "sync did not quiesce";
    }
    return delivered;
  }

  /// Counts queued messages by action label.
  std::size_t queued(std::string_view name) const {
    std::size_t c = 0;
    for (const auto& [to, msg] : queue_) {
      if (msg->name() == name) ++c;
    }
    return c;
  }

  static constexpr sim::NodeId kU{1};
  static constexpr sim::NodeId kV{2};

  struct QueueSink final : core::MessageSink {
    explicit QueueSink(std::deque<std::pair<sim::NodeId, sim::PooledMsg>>& q)
        : q_(&q) {}
    void send(sim::NodeId to, sim::PooledMsg msg) override {
      q_->emplace_back(to, std::move(msg));
    }
    sim::MessagePool& pool() override { return pool_; }
    sim::MessagePool pool_;
    std::deque<std::pair<sim::NodeId, sim::PooledMsg>>* q_;
  };

  // Declaration order matters: queue_ holds messages living in
  // sink_.pool_, and members destruct in reverse order, so the queue
  // (declared after the sink) drains before the pool dies. The sink only
  // stores the queue's address at construction, never dereferences it.
  QueueSink sink_{queue_};
  std::deque<std::pair<sim::NodeId, sim::PooledMsg>> queue_;
  ssps::Rng rng_u_{1};
  ssps::Rng rng_v_{2};
  core::SubscriberProtocol u_over_{kU, sim::NodeId{99}, sink_, rng_u_};
  core::SubscriberProtocol v_over_{kV, sim::NodeId{99}, sink_, rng_v_};
  PubSubConfig cfg_{.key_bits = 64, .flooding = false, .anti_entropy = true};
  std::unique_ptr<PubSubProtocol> u_ =
      std::make_unique<PubSubProtocol>(u_over_, sink_, rng_u_, cfg_);
  std::unique_ptr<PubSubProtocol> v_ =
      std::make_unique<PubSubProtocol>(v_over_, sink_, rng_v_, cfg_);
};

TEST(Sync, IdenticalTriesStaySilent) {
  // Theorem 23 at message level: equal root hashes produce no response.
  Pair p;
  const Publication a{sim::NodeId{5}, "same"};
  p.u_->add_local(a);
  p.v_->add_local(a);
  p.u_->timeout();  // sends CheckTrie(u, root) to v
  EXPECT_EQ(p.queued("CheckTrie"), 1u);
  p.pump();
  EXPECT_TRUE(p.queue_.empty());  // v answered with silence
}

TEST(Sync, EmptySenderStaysQuiet) {
  Pair p;
  p.u_->timeout();
  EXPECT_TRUE(p.queue_.empty());  // nothing to offer, no message at all
}

TEST(Sync, OneMissingPublicationFlowsAcross) {
  Pair p;
  const Publication a{sim::NodeId{5}, "common-1"};
  const Publication b{sim::NodeId{6}, "common-2"};
  const Publication extra{sim::NodeId{7}, "only-at-u"};
  for (const auto& pub : {a, b}) {
    p.u_->add_local(pub);
    p.v_->add_local(pub);
  }
  p.u_->add_local(extra);
  p.u_->timeout();
  p.pump();
  EXPECT_TRUE(p.u_->trie().equal_contents(p.v_->trie()));
  EXPECT_EQ(p.v_->trie().size(), 3u);
}

TEST(Sync, ConvergesInBothDirectionsSimultaneously) {
  Pair p;
  for (int i = 0; i < 12; ++i) {
    p.u_->add_local(Publication{sim::NodeId{1}, "u" + std::to_string(i)});
    p.v_->add_local(Publication{sim::NodeId{2}, "v" + std::to_string(i)});
  }
  // A few timeout exchanges merge both sides completely.
  for (int round = 0; round < 40 && !p.u_->trie().equal_contents(p.v_->trie());
       ++round) {
    p.u_->timeout();
    p.v_->timeout();
    p.pump();
  }
  EXPECT_TRUE(p.u_->trie().equal_contents(p.v_->trie()));
  EXPECT_EQ(p.u_->trie().size(), 24u);
}

TEST(Sync, FigureTwoScenarioDeliversP4) {
  // The paper's worked example: u has P1..P4, v has P1..P3. When v starts
  // the exchange, u spots the divergence and v ends up requesting exactly
  // the publications prefixed 101 (= P4).
  Pair p;
  // Model the figure's 3-bit keyspace inside the 64-bit one by brute-force
  // finding payloads whose keys start with the wanted 3 bits.
  auto with_prefix = [&](const std::string& bits) {
    for (std::uint64_t salt = 0;; ++salt) {
      Publication cand{sim::NodeId{3}, "fig" + std::to_string(salt)};
      if (p.u_->trie().key_of(cand).prefix(3).to_string() == bits) return cand;
    }
  };
  const Publication p1 = with_prefix("000");
  const Publication p2 = with_prefix("010");
  const Publication p3 = with_prefix("100");
  const Publication p4 = with_prefix("101");
  for (const auto& pub : {p1, p2, p3, p4}) p.u_->add_local(pub);
  for (const auto& pub : {p1, p2, p3}) p.v_->add_local(pub);

  // v initiates (the paper: "it is important at which subscriber the
  // initial CheckTrie request is started" — v-initiated finds P4).
  p.v_->timeout();
  p.pump();
  EXPECT_TRUE(p.u_->trie().equal_contents(p.v_->trie()));
  const PatriciaTrie& v_trie = p.v_->trie();
  EXPECT_EQ(v_trie.locate(v_trie.key_of(p4)).kind, Locate::Kind::kExact);
}

TEST(Sync, InitiationDirectionMattersAsThePaperNotes) {
  // §4.2: "the example shows that it is important at which subscriber the
  // initial CheckTrie request is started." When u holds a superset whose
  // extra key hides behind an inner splice, a u-initiated exchange can end
  // in silence (every subtrie v probes has an identical counterpart in u);
  // the v-initiated exchange finds the splice and transfers the key. The
  // protocol converges because both sides keep initiating (PublishTimeout).
  Pair p;
  for (int i = 0; i < 8; ++i) {
    const Publication common{sim::NodeId{1}, "c" + std::to_string(i)};
    p.u_->add_local(common);
    p.v_->add_local(common);
  }
  p.u_->add_local(Publication{sim::NodeId{9}, "novel"});
  p.u_->timeout();
  p.pump();
  // u-initiated alone may or may not discover the difference...
  p.v_->timeout();
  p.pump();
  // ...but after the reverse exchange the tries must agree (Claim 21).
  EXPECT_TRUE(p.u_->trie().equal_contents(p.v_->trie()));
  EXPECT_EQ(p.v_->trie().size(), 9u);
}

TEST(Sync, EmptyReceiverRequestsEverything) {
  Pair p;
  for (int i = 0; i < 5; ++i) p.u_->add_local(Publication{sim::NodeId{1}, std::to_string(i)});
  p.u_->timeout();
  p.pump();
  EXPECT_EQ(p.v_->trie().size(), 5u);
}

TEST(Sync, CorruptedCheckTrieTuplesCannotPoison) {
  // Garbage tuples (random labels/hashes) must at worst trigger harmless
  // requests — never corrupt tries or crash.
  Pair p;
  p.u_->add_local(Publication{sim::NodeId{1}, "real"});
  std::vector<NodeSummary> junk;
  junk.push_back(NodeSummary{BitString::from_string("10101"), Digest{}});
  junk.push_back(NodeSummary{BitString{}, Digest{{1, 2, 3}}});
  p.u_->handle(msg::CheckTrie(Pair::kV, junk));
  p.pump();
  EXPECT_EQ(p.u_->trie().size(), 1u);
  EXPECT_EQ(p.u_->trie().check_invariants(), "");
}

TEST(Sync, PublishNewInsertsWithoutForwardingWhenKnown) {
  Pair p;
  const Publication a{sim::NodeId{5}, "flooded"};
  p.u_->add_local(a);
  p.u_->handle(msg::PublishNew(a));  // duplicate: dropped silently
  EXPECT_TRUE(p.queue_.empty());
  EXPECT_EQ(p.u_->trie().size(), 1u);
}

TEST(Sync, MessageCostScalesWithDivergenceNotTrieSize) {
  // With 200 shared publications and 1 difference, the exchange costs a
  // handful of messages — not O(|P|).
  Pair p;
  for (int i = 0; i < 200; ++i) {
    const Publication common{sim::NodeId{1}, "bulk" + std::to_string(i)};
    p.u_->add_local(common);
    p.v_->add_local(common);
  }
  p.u_->add_local(Publication{sim::NodeId{2}, "the-diff"});
  std::size_t exchanged = 0;
  for (int round = 0; round < 10 && !p.u_->trie().equal_contents(p.v_->trie());
       ++round) {
    p.u_->timeout();
    p.v_->timeout();
    exchanged += p.pump();
  }
  EXPECT_TRUE(p.u_->trie().equal_contents(p.v_->trie()));
  // Depth of a 200-key random trie is ~log2(200) + a few; every level
  // costs at most 2 messages each way, per initiation direction.
  EXPECT_LE(exchanged, 80u);
}

}  // namespace
}  // namespace ssps::pubsub
