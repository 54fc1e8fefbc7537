#include "mc/executor.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"
#include "common/encode.hpp"
#include "pubsub/hash.hpp"

namespace ssps::mc {

Executor::Executor(const Options& options) : opt_(options) { reset(); }

void Executor::reset() {
  // Rebuild instead of snapshot-restore: construct + spawn + scramble is a
  // few microseconds at model-checking sizes, and rebuilding from the seed
  // is trivially bit-deterministic (the Network seeds every per-node RNG
  // stream by split order, and the injector owns its own stream).
  sys_ = std::make_unique<pubsub::PubSubSystem>(
      core::SkipRingSystem::Options{.seed = opt_.seed, .fd_delay = 0},
      pubsub::PubSubConfig{});
  sys_->add_pubsub_subscribers(opt_.nodes);
  auto branch = std::make_unique<sched::BranchScheduler>();
  branch_ = branch.get();
  sys_->net().set_scheduler(std::move(branch));
  oracle::ArbitraryStateInjector injector(opt_.scramble);
  injector.scramble(*sys_);
  primed_ = false;
  batch_ = 0;
  fired_ = 0;
  rounds_ = 0;
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
  std::vector<std::vector<std::uint8_t>> seen;
  for (std::size_t i = first; i < batch_; ++i) {
    if (consumed_[i]) continue;
    const sim::Envelope& env = branch_->slot(net, i);
    if (env.to != target) break;  // groups are contiguous in target order
    std::vector<std::uint8_t> key = encode_envelope(env);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      ++out.pruned;
      continue;
    }
    seen.push_back(std::move(key));
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

std::vector<std::uint8_t> Executor::encode_envelope(
    const sim::Envelope& env) const {
  common::Encoder enc;
  enc.u64(env.to.value);
  enc.string(env.msg->name());
  const bool encodable = env.msg->encode(enc);
  SSPS_ASSERT_MSG(encodable,
                  "mc: in-flight message class lacks a canonical encoding");
  return enc.buffer();
}

StateHash Executor::state_hash() {
  common::Encoder enc;
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
  std::vector<std::vector<std::uint8_t>> messages;
  for (const sim::Envelope& env : branch_->pending(net)) {
    messages.push_back(encode_envelope(env));
  }
  std::sort(messages.begin(), messages.end());
  enc.u64(messages.size());
  for (const auto& message : messages) {
    enc.bytes(message.data(), message.size());
  }
  // Mid-round positions additionally carry the undelivered remainder of
  // the primed batch, also as a sorted multiset: two delivery orders that
  // land on the same node states, RNG streams and remaining messages have
  // identical futures (the branch point only ever offers the lowest-id
  // target's distinct messages, a function of exactly this data), so the
  // explorer's round memo can collapse commuting permutations. The flag
  // byte keeps boundary and mid-round encodings from ever colliding.
  enc.u8(primed_ ? 1 : 0);
  if (primed_) {
    std::vector<std::vector<std::uint8_t>> remaining;
    for (std::size_t i = 0; i < batch_; ++i) {
      if (consumed_[i]) continue;
      remaining.push_back(encode_envelope(branch_->slot(net, i)));
    }
    std::sort(remaining.begin(), remaining.end());
    enc.u64(remaining.size());
    for (const auto& message : remaining) {
      enc.bytes(message.data(), message.size());
    }
  }
  const pubsub::Digest digest = pubsub::Sha256::digest(
      std::span<const std::uint8_t>(enc.buffer().data(), enc.size()));
  StateHash h;
  for (int i = 0; i < 8; ++i) {
    h.hi |= static_cast<std::uint64_t>(digest[i]) << (8 * i);
    h.lo |= static_cast<std::uint64_t>(digest[8 + i]) << (8 * i);
  }
  return h;
}

oracle::OracleReport Executor::check() { return oracle::check_system(*sys_); }

}  // namespace ssps::mc
