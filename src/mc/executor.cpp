#include "mc/executor.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/assert.hpp"
#include "common/encode.hpp"
#include "pubsub/hash.hpp"

namespace ssps::mc {

namespace {

/// Byte order as std::vector<std::uint8_t>'s operator< defines it.
bool bytes_less(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  const int order = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  return order != 0 ? order < 0 : a.size() < b.size();
}

bool bytes_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Writes `v` little-endian at `out` (common::Encoder::u64's bytes).
std::uint8_t* put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out + 8;
}

std::uint8_t* put_bytes(std::uint8_t* out, std::span<const std::uint8_t> bytes) {
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  return out + bytes.size();
}

}  // namespace

void Executor::Encodings::add(const sim::Envelope& env) {
  const std::size_t offset = bytes.size();
  common::Encoder enc(bytes);
  enc.u64(env.to.value);
  enc.string(env.msg->name());
  const bool encodable = env.msg->encode(enc);
  SSPS_ASSERT_MSG(encodable, "mc: in-flight message class lacks a canonical encoding");
  const auto entry = static_cast<std::uint32_t>(spans.size());
  spans.push_back(Span{offset, bytes.size() - offset});
  const auto less = [this](std::uint32_t a, std::uint32_t b) {
    return bytes_less(at(a), at(b));
  };
  order.insert(std::upper_bound(order.begin(), order.end(), entry, less), entry);
}

template <typename Keep>
std::uint8_t* Executor::Encodings::write(std::uint8_t* out, std::size_t count,
                                         Keep keep) const {
  out = put_u64(out, count);
  for (const std::uint32_t i : order) {
    if (!keep(i)) continue;
    out = put_u64(out, spans[i].size);
    out = put_bytes(out, at(i));
  }
  return out;
}

void Executor::Encodings::clear() {
  bytes.clear();
  spans.clear();
  order.clear();
}

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
  nodes_.clear();
  nodes_.reserve(sys_->net().alive_count());
  sys_->net().for_each_alive(
      [this](sim::NodeId, const sim::Node& node) { nodes_.push_back(&node); });
  caches_.nodes.resize(nodes_.size());
  for (NodeEncoding& node : caches_.nodes) node.stale = true;
  caches_.lane.clear();
  caches_.batch.clear();
  rounds_ = 0;
  ++system_;
}

void Executor::Checkpoint::release_clones() {
  for (std::vector<sim::Envelope>* clones : {&lane_, &batch_}) {
    for (const sim::Envelope& env : *clones) {
      if (env.msg != nullptr) env.pool->destroy(env.msg);
    }
    clones->clear();
  }
}

Executor::Checkpoint::~Checkpoint() { release_clones(); }

void Executor::save(Checkpoint& cp) {
  cp.release_clones();
  sim::Network& net = sys_->net();
  cp.system_ = system_;
  // Copy-assignment into the previous save's objects reuses their
  // containers' storage.
  const core::SupervisorNode& supervisor =
      net.node_as<core::SupervisorNode>(sys_->supervisor_id());
  cp.supervisor_ = supervisor.protocol();
  cp.supervisor_rng_ = supervisor.rng_stream();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const pubsub::PubSubNode& node = net.node_as<pubsub::PubSubNode>(members_[i]);
    if (i == cp.members_.size()) {
      cp.members_.push_back({node.protocol(), node.pubsub(), node.rng_stream()});
      continue;
    }
    Checkpoint::Member& saved = cp.members_[i];
    saved.overlay = node.protocol();
    saved.pubsub = node.pubsub();
    saved.rng = node.rng_stream();
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
  cp.caches_ = caches_;
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
  caches_ = cp.caches_;
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
  sim::Network& net = sys_->net();
  batch_ = branch_->prime(net);
  consumed_.assign(batch_, false);
  fired_ = 0;
  primed_ = true;
  // The lane's messages are now the batch's; the lane starts empty.
  caches_.lane.clear();
  caches_.batch.clear();
  for (std::size_t i = 0; i < batch_; ++i) caches_.batch.add(branch_->slot(net, i));
}

void Executor::barrier() {
  SSPS_ASSERT_MSG(primed_ && drained(), "barrier: round not drained");
  branch_->barrier(sys_->net());
  primed_ = false;
  ++rounds_;
  for (NodeEncoding& node : caches_.nodes) node.stale = true;
}

Enabled Executor::enabled() {
  SSPS_ASSERT_MSG(primed_, "enabled: prime a round first");
  Enabled out;
  sim::Network& net = sys_->net();
  std::size_t first = 0;
  while (first < batch_ && consumed_[first]) ++first;
  if (first == batch_) return out;  // drained
  const sim::NodeId target = branch_->slot(net, first).to;
  for (std::size_t i = first; i < batch_; ++i) {
    if (consumed_[i]) continue;
    const sim::Envelope& env = branch_->slot(net, i);
    if (env.to != target) break;  // groups are contiguous in target order
    const std::span<const std::uint8_t> key = caches_.batch.at(i);
    const bool duplicate =
        std::any_of(out.slots.begin(), out.slots.end(), [&](std::uint32_t kept) {
          return bytes_equal(caches_.batch.at(kept), key);
        });
    if (duplicate) {
      ++out.pruned;
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
  const sim::NodeId target = env.to;
  if (!opt_.drop_message_name.empty() &&
      env.msg->name() == opt_.drop_message_name) {
    branch_->discard(net, slot);
  } else {
    branch_->deliver(net, slot);
  }
  consumed_[slot] = true;
  ++fired_;
  const auto by_id = [](const sim::Node* n, sim::NodeId id) { return n->id() < id; };
  const auto node = std::lower_bound(nodes_.begin(), nodes_.end(), target, by_id);
  if (node != nodes_.end() && (*node)->id() == target) {
    caches_.nodes[static_cast<std::size_t>(node - nodes_.begin())].stale = true;
  }
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

void Executor::encode_node(std::size_t index) {
  // Node states in id order (canonical). The per-node RNG streams are part
  // of the state: two configurations that agree on every protocol variable
  // but differ in pending randomness can still diverge. The round/step
  // clocks, version counters and derived caches are excluded — none of
  // them feeds back into any protocol decision (the failure detector reads
  // the crash log, which stays empty here: the checker never crashes
  // nodes).
  NodeEncoding& cached = caches_.nodes[index];
  const sim::Node& node = *nodes_[index];
  const sim::NodeId id = node.id();
  cached.bytes.clear();
  common::Encoder enc(cached.bytes);
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
  cached.stale = false;
}

StateHash Executor::state_hash() {
  sim::Network& net = sys_->net();
  std::size_t size = 0;
  for (std::size_t i = 0; i < caches_.nodes.size(); ++i) {
    if (caches_.nodes[i].stale) encode_node(i);
    size += caches_.nodes[i].bytes.size();
  }
  const std::vector<sim::Envelope>& lane = branch_->pending(net);
  Encodings& lane_enc = caches_.lane;
  SSPS_ASSERT_MSG(lane_enc.spans.size() <= lane.size(),
                  "state_hash: the lane shrank without a prime or restore");
  for (std::size_t i = lane_enc.spans.size(); i < lane.size(); ++i) lane_enc.add(lane[i]);
  const Encodings& batch_enc = caches_.batch;
  const std::size_t unfired = primed_ ? batch_ - fired_ : 0;
  const auto net_rng = net.rng().state();
  // An upper bound: the unfired slots' encodings are at most the batch's.
  size += 8 * net_rng.size() + 8 + 8 * lane_enc.spans.size() + lane_enc.bytes.size() + 1;
  if (primed_) size += 8 + 8 * unfired + batch_enc.bytes.size();
  state_buf_.resize(std::max(state_buf_.size(), size));

  std::uint8_t* out = state_buf_.data();
  for (const NodeEncoding& node : caches_.nodes) out = put_bytes(out, node.bytes);
  // The network's stream feeds prime()'s shuffle, so it is state too.
  for (std::uint64_t word : net_rng) out = put_u64(out, word);
  // Channel contents as a multiset: per-envelope canonical encodings in
  // sorted byte order. Sound because the explorer tries every delivery
  // order anyway — two states whose channels hold the same messages in
  // different send order have identical futures.
  out = lane_enc.write(out, lane_enc.spans.size(), [](std::uint32_t) { return true; });
  // Mid-round positions additionally carry the undelivered remainder of
  // the primed batch, also as a sorted multiset: two delivery orders that
  // land on the same node states, RNG streams and remaining messages have
  // identical futures (the branch point only ever offers the lowest-id
  // target's distinct messages, a function of exactly this data), so the
  // explorer's round memo can collapse commuting permutations. The flag
  // byte keeps boundary and mid-round encodings from ever colliding.
  *out++ = primed_ ? 1 : 0;
  if (primed_) {
    const auto unfired_slot = [this](std::uint32_t slot) { return !consumed_[slot]; };
    out = batch_enc.write(out, unfired, unfired_slot);
  }
  const pubsub::Digest digest = pubsub::Sha256::digest(
      std::span<const std::uint8_t>(state_buf_.data(), out));
  StateHash h;
  for (int i = 0; i < 8; ++i) {
    h.hi |= static_cast<std::uint64_t>(digest[i]) << (8 * i);
    h.lo |= static_cast<std::uint64_t>(digest[8 + i]) << (8 * i);
  }
  return h;
}

oracle::OracleReport Executor::check() { return oracle::check_system(*sys_); }

}  // namespace ssps::mc
