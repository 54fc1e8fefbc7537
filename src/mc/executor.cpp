#include "mc/executor.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/assert.hpp"
#include "common/encode.hpp"
#include "pubsub/hash.hpp"

namespace ssps::mc {

Executor::Executor(const Options& options) : opt_(options) { reset(); }

void Executor::reset() {
  // A replay may land here mid-round. The grouped slots the round has not
  // fired sit in no lane, so the dropped system's Network would leave
  // them to its pool's teardown sweep; reclaim them first.
  discard_round();
  // Rebuilding from the seed is trivially bit-deterministic (the Network
  // seeds every per-node RNG stream by split order, and the injector owns
  // its own stream).
  sys_ = std::make_unique<pubsub::PubSubSystem>(
      core::SkipRingSystem::Options{.seed = opt_.seed, .fd_delay = 0},
      pubsub::PubSubConfig{});
  sys_->add_pubsub_subscribers(opt_.nodes);
  auto branch = std::make_unique<sched::BranchScheduler>();
  branch_ = branch.get();
  sys_->net().set_scheduler(std::move(branch));
  oracle::ArbitraryStateInjector injector(opt_.scramble);
  injector.scramble(*sys_);
  members_ = sys_->subscriber_ids();
  rounds_ = 0;
  ++system_;
}

Executor::Checkpoint::~Checkpoint() {
  for (const std::vector<sim::Envelope>* clones : {&lane_, &batch_}) {
    for (const sim::Envelope& env : *clones) {
      if (env.msg != nullptr) env.pool->destroy(env.msg);
    }
  }
}

Executor::Checkpoint Executor::save() {
  sim::Network& net = sys_->net();
  Checkpoint cp;
  cp.system_ = system_;
  const core::SupervisorNode& supervisor =
      net.node_as<core::SupervisorNode>(sys_->supervisor_id());
  cp.supervisor_.emplace(supervisor.protocol());
  cp.supervisor_rng_ = supervisor.rng_stream();
  cp.members_.reserve(members_.size());
  for (const sim::NodeId id : members_) {
    const pubsub::PubSubNode& node = net.node_as<pubsub::PubSubNode>(id);
    cp.members_.push_back({node.protocol(), node.pubsub(), node.rng_stream()});
  }
  cp.net_rng_ = net.rng();
  cp.round_ = net.round();
  for (const sim::Envelope& env : branch_->pending(net)) {
    cp.lane_.push_back(sim::clone_envelope(env, checkpoint_pool_));
  }
  for (std::size_t i = 0; i < batch_; ++i) {
    if (consumed_[i]) {
      cp.batch_.emplace_back();
    } else {
      cp.batch_.push_back(sim::clone_envelope(branch_->slot(net, i), checkpoint_pool_));
    }
  }
  cp.primed_ = primed_;
  cp.fired_ = fired_;
  cp.rounds_ = rounds_;
  cp.consumed_ = consumed_;
  return cp;
}

void Executor::restore(const Checkpoint& cp) {
  SSPS_ASSERT_MSG(cp.system_ == system_,
                  "restore: the system was rebuilt (reset or replay) since the save");
  discard_round();
  sim::Network& net = sys_->net();
  core::SupervisorNode& supervisor =
      net.node_as<core::SupervisorNode>(sys_->supervisor_id());
  supervisor.protocol().restore(*cp.supervisor_);
  supervisor.set_rng_stream(cp.supervisor_rng_);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Checkpoint::Member& saved = cp.members_[i];
    pubsub::PubSubNode& node = net.node_as<pubsub::PubSubNode>(members_[i]);
    node.protocol().restore(saved.overlay);
    node.pubsub() = saved.pubsub;
    node.set_rng_stream(saved.rng);
  }
  net.rng() = cp.net_rng_;
  branch_->set_round(net, cp.round_);
  branch_->restore_lane(net, cp.lane_);
  branch_->restore_batch(net, cp.batch_);
  primed_ = cp.primed_;
  batch_ = cp.batch_.size();
  fired_ = cp.fired_;
  rounds_ = cp.rounds_;
  consumed_ = cp.consumed_;
}

void Executor::discard_round() {
  if (primed_) {
    for (std::size_t i = 0; i < batch_; ++i) {
      if (!consumed_[i]) branch_->discard(sys_->net(), i);
    }
  }
  primed_ = false;
  batch_ = 0;
  fired_ = 0;
  consumed_.clear();
}

void Executor::prime() {
  SSPS_ASSERT_MSG(!primed_, "prime: round already open");
  batch_ = branch_->prime(sys_->net());
  consumed_.assign(batch_, false);
  fired_ = 0;
  primed_ = true;
}

void Executor::barrier() {
  SSPS_ASSERT_MSG(primed_ && drained(), "barrier: round not drained");
  branch_->barrier(sys_->net());
  primed_ = false;
  ++rounds_;
}

Enabled Executor::enabled() {
  SSPS_ASSERT_MSG(primed_, "enabled: prime a round first");
  Enabled out;
  sim::Network& net = sys_->net();
  std::size_t first = 0;
  while (first < batch_ && consumed_[first]) ++first;
  if (first == batch_) return out;  // drained
  const sim::NodeId target = branch_->slot(net, first).to;
  msg_buf_.clear();
  spans_.clear();
  for (std::size_t i = first; i < batch_; ++i) {
    if (consumed_[i]) continue;
    const sim::Envelope& env = branch_->slot(net, i);
    if (env.to != target) break;  // groups are contiguous in target order
    encode_envelope(env);
    const Span key = spans_.back();
    const std::uint8_t* bytes = msg_buf_.data();
    const bool duplicate =
        std::any_of(spans_.begin(), spans_.end() - 1, [&](const Span& kept) {
          return kept.size == key.size &&
                 std::memcmp(bytes + kept.offset, bytes + key.offset, key.size) == 0;
        });
    if (duplicate) {
      ++out.pruned;
      spans_.pop_back();
      msg_buf_.resize(key.offset);
      continue;
    }
    out.slots.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

void Executor::fire(std::uint32_t slot) {
  SSPS_ASSERT_MSG(primed_ && slot < batch_ && !consumed_[slot],
                  "fire: slot out of range or already fired");
  sim::Network& net = sys_->net();
  const sim::Envelope& env = branch_->slot(net, slot);
  if (!opt_.drop_message_name.empty() &&
      env.msg->name() == opt_.drop_message_name) {
    branch_->discard(net, slot);
  } else {
    branch_->deliver(net, slot);
  }
  consumed_[slot] = true;
  ++fired_;
}

void Executor::replay(const Trace& trace) {
  reset();
  prime();
  for (std::uint32_t choice : trace) {
    if (choice == kAdvance) {
      advance();
    } else {
      fire(choice);
    }
  }
}

void Executor::encode_envelope(const sim::Envelope& env) {
  const std::size_t offset = msg_buf_.size();
  common::Encoder enc(msg_buf_);
  enc.u64(env.to.value);
  enc.string(env.msg->name());
  const bool encodable = env.msg->encode(enc);
  SSPS_ASSERT_MSG(encodable,
                  "mc: in-flight message class lacks a canonical encoding");
  spans_.push_back(Span{offset, msg_buf_.size() - offset});
}

void Executor::append_sorted(common::Encoder& enc) {
  // Byte order as std::vector<std::uint8_t>'s operator< defines it: the
  // first differing byte decides, and a proper prefix sorts first.
  const std::uint8_t* bytes = msg_buf_.data();
  std::sort(spans_.begin(), spans_.end(), [bytes](const Span& a, const Span& b) {
    const std::size_t common = std::min(a.size, b.size);
    const int order = std::memcmp(bytes + a.offset, bytes + b.offset, common);
    return order != 0 ? order < 0 : a.size < b.size;
  });
  enc.u64(spans_.size());
  for (const Span& span : spans_) enc.bytes(bytes + span.offset, span.size);
  msg_buf_.clear();
  spans_.clear();
}

StateHash Executor::state_hash() {
  state_buf_.clear();
  common::Encoder enc(state_buf_);
  sim::Network& net = sys_->net();
  // Node states in id order (canonical). The per-node and network RNG
  // streams are part of the state: two configurations that agree on every
  // protocol variable but differ in pending randomness can still diverge.
  // The round/step clocks, version counters and derived caches are
  // excluded — none of them feeds back into any protocol decision (the
  // failure detector reads the crash log, which stays empty here: the
  // checker never crashes nodes).
  net.for_each_alive([&](sim::NodeId id, const sim::Node& node) {
    enc.u64(id.value);
    enc.u8(static_cast<std::uint8_t>(node.kind()));
    if (node.kind() == sim::NodeKind::kSupervisor) {
      sys_->supervisor().encode_state(enc);
    } else {
      sys_->subscriber(id).encode_state(enc);
      const pubsub::PatriciaTrie& trie = sys_->pubsub(id).trie();
      enc.u64(trie.size());
      enc.optional(trie.root(), pubsub::msg::encode_summary);
    }
    for (std::uint64_t word : node.rng_state()) enc.u64(word);
  });
  for (std::uint64_t word : net.rng().state()) enc.u64(word);
  // Channel contents as a multiset: per-envelope canonical encodings in
  // sorted byte order. Sound because the explorer tries every delivery
  // order anyway — two states whose channels hold the same messages in
  // different send order have identical futures.
  msg_buf_.clear();
  spans_.clear();
  for (const sim::Envelope& env : branch_->pending(net)) encode_envelope(env);
  append_sorted(enc);
  // Mid-round positions additionally carry the undelivered remainder of
  // the primed batch, also as a sorted multiset: two delivery orders that
  // land on the same node states, RNG streams and remaining messages have
  // identical futures (the branch point only ever offers the lowest-id
  // target's distinct messages, a function of exactly this data), so the
  // explorer's round memo can collapse commuting permutations. The flag
  // byte keeps boundary and mid-round encodings from ever colliding.
  enc.u8(primed_ ? 1 : 0);
  if (primed_) {
    for (std::size_t i = 0; i < batch_; ++i) {
      if (!consumed_[i]) encode_envelope(branch_->slot(net, i));
    }
    append_sorted(enc);
  }
  const pubsub::Digest digest = pubsub::Sha256::digest(
      std::span<const std::uint8_t>(state_buf_.data(), state_buf_.size()));
  StateHash h;
  for (int i = 0; i < 8; ++i) {
    h.hi |= static_cast<std::uint64_t>(digest[i]) << (8 * i);
    h.lo |= static_cast<std::uint64_t>(digest[8 + i]) << (8 * i);
  }
  return h;
}

oracle::OracleReport Executor::check() { return oracle::check_system(*sys_); }

}  // namespace ssps::mc
