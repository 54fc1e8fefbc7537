#include "mc/executor.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/assert.hpp"
#include "common/encode.hpp"

namespace ssps::mc {

namespace {

bool bytes_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Writes `v` little-endian at `out` (common::Encoder::u64's bytes).
std::uint8_t* put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out + 8;
}

std::uint8_t* put_hash(std::uint8_t* out, const Hash128& h) {
  return put_u64(put_u64(out, h.hi), h.lo);
}

/// Appends `env`'s canonical encoding (target, name, payload) to `out`.
/// Aborts with a diagnostic if the message class lacks an encoding —
/// every protocol message must stay encodable.
void encode_message(const sim::Envelope& env, std::vector<std::uint8_t>& out) {
  common::Encoder enc(out);
  enc.u64(env.to.value);
  enc.string(env.msg->name());
  const bool encodable = env.msg->encode(enc);
  SSPS_ASSERT_MSG(encodable, "mc: in-flight message class lacks a canonical encoding");
}

}  // namespace

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
  nodes_.clear();
  nodes_.reserve(sys_->net().alive_count());
  sys_->net().for_each_alive([this](sim::NodeId, const sim::Node& node) {
    nodes_.push_back(Tracked{.node = &node, .stamp = next_stamp(), .digest = {}});
  });
  lane_digests_ = {};
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
  cp.nodes_.resize(nodes_.size());
  // Copy-assignment into the previous save's objects reuses their
  // containers' storage. A node whose saved copy carries its stamp is
  // still that copy: the stamps never repeat.
  std::size_t member = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Tracked& live = nodes_[i];
    Checkpoint::Saved& saved = cp.nodes_[i];
    const bool supervisor = live.node->kind() == sim::NodeKind::kSupervisor;
    const bool copy = saved.stamp != live.stamp;
    if (copy) {
      saved.stamp = live.stamp;
      saved.rng = live.node->rng_stream();
    }
    if (saved.digest.stamp != saved.stamp) saved.digest = live.digest;
    if (supervisor) {
      if (copy) cp.supervisor_ = sys_->supervisor();
      continue;
    }
    const pubsub::PubSubNode& node = net.node_as<pubsub::PubSubNode>(live.node->id());
    if (member == cp.members_.size()) {
      cp.members_.push_back({node.protocol(), node.pubsub()});
    } else if (copy) {
      cp.members_[member].overlay = node.protocol();
      cp.members_[member].pubsub = node.pubsub();
    }
    ++member;
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
  cp.lane_digests_ = lane_digests_;
  cp.unfired_ = unfired_;
  // A batch's encodings never change after its prime, whose stamp they
  // carry.
  if (cp.batch_encodings_.stamp != batch_encodings_.stamp) {
    cp.batch_encodings_ = batch_encodings_;
  }
}

void Executor::restore(const Checkpoint& cp) {
  SSPS_ASSERT_MSG(cp.system_ == system_,
                  "restore: the system was rebuilt (reset or replay) since the save");
  discard_round();
  sim::Network& net = sys_->net();
  // Only a node whose stamp moved since the save changed; the rest still
  // hold the saved states.
  std::size_t member = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Tracked& live = nodes_[i];
    const Checkpoint::Saved& saved = cp.nodes_[i];
    const bool supervisor = live.node->kind() == sim::NodeKind::kSupervisor;
    if (live.stamp != saved.stamp) {
      live.stamp = saved.stamp;
      if (supervisor) {
        core::SupervisorNode& node = net.node_as<core::SupervisorNode>(live.node->id());
        node.protocol().restore(*cp.supervisor_);
        node.set_rng_stream(saved.rng);
      } else {
        const Checkpoint::Member& copy = cp.members_[member];
        pubsub::PubSubNode& node = net.node_as<pubsub::PubSubNode>(live.node->id());
        node.protocol().restore(copy.overlay);
        node.pubsub() = copy.pubsub;
        node.set_rng_stream(saved.rng);
      }
    }
    if (live.digest.stamp != live.stamp) live.digest = saved.digest;
    if (!supervisor) ++member;
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
  lane_digests_ = cp.lane_digests_;
  unfired_ = cp.unfired_;
  if (batch_encodings_.stamp != cp.batch_encodings_.stamp) {
    batch_encodings_ = cp.batch_encodings_;
  }
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
  unfired_ = {};
}

void Executor::prime() {
  SSPS_ASSERT_MSG(!primed_, "prime: round already open");
  sim::Network& net = sys_->net();
  batch_ = branch_->prime(net);
  consumed_.assign(batch_, false);
  fired_ = 0;
  primed_ = true;
  // The lane's messages are now the batch's; the lane starts empty.
  lane_digests_ = {};
  Batch& encodings = batch_encodings_;
  encodings.stamp = next_stamp();
  encodings.bytes.clear();
  encodings.entries.clear();
  for (std::size_t i = 0; i < batch_; ++i) {
    const std::size_t offset = encodings.bytes.size();
    encode_message(branch_->slot(net, i), encodings.bytes);
    const std::size_t size = encodings.bytes.size() - offset;
    const Hash128 digest = hash128({encodings.bytes.data() + offset, size});
    encodings.entries.push_back({offset, size, digest});
    unfired_.add(digest);
  }
}

void Executor::barrier() {
  SSPS_ASSERT_MSG(primed_ && drained(), "barrier: round not drained");
  branch_->barrier(sys_->net());
  primed_ = false;
  ++rounds_;
  for (Tracked& node : nodes_) node.stamp = next_stamp();
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
    const std::span<const std::uint8_t> key = batch_encodings_.at(i);
    const bool duplicate =
        std::any_of(out.slots.begin(), out.slots.end(), [&](std::uint32_t kept) {
          return bytes_equal(batch_encodings_.at(kept), key);
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
  unfired_.remove(batch_encodings_.entries[slot].digest);
  const auto by_id = [](const Tracked& n, sim::NodeId id) { return n.node->id() < id; };
  const auto node = std::lower_bound(nodes_.begin(), nodes_.end(), target, by_id);
  if (node != nodes_.end() && node->node->id() == target) node->stamp = next_stamp();
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
  Tracked& tracked = nodes_[index];
  const sim::Node& node = *tracked.node;
  const sim::NodeId id = node.id();
  buffer_.clear();
  common::Encoder enc(buffer_);
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
  tracked.digest = {hash128(buffer_), tracked.stamp};
}

StateHash Executor::state_hash() {
  sim::Network& net = sys_->net();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].digest.stamp != nodes_[i].stamp) encode_node(i);
  }
  const std::vector<sim::Envelope>& lane = branch_->pending(net);
  SSPS_ASSERT_MSG(lane_digests_.count <= lane.size(),
                  "state_hash: the lane shrank without a prime or restore");
  for (std::size_t i = lane_digests_.count; i < lane.size(); ++i) {
    buffer_.clear();
    encode_message(lane[i], buffer_);
    lane_digests_.add(hash128(buffer_));
  }
  const auto net_rng = net.rng().state();
  buffer_.resize(16 * nodes_.size() + 8 * net_rng.size() + 1 + 2 * 24);
  std::uint8_t* out = buffer_.data();
  for (const Tracked& node : nodes_) out = put_hash(out, node.digest.digest);
  // The network's stream feeds prime()'s shuffle, so it is state too.
  for (std::uint64_t word : net_rng) out = put_u64(out, word);
  // The flag byte keeps boundary and mid-round positions from ever
  // colliding: a drained round still has its barrier ahead.
  *out++ = primed_ ? 1 : 0;
  // Channel contents as a multiset: the sum of the per-envelope digests.
  // Sound because the explorer tries every delivery order anyway — two
  // states whose channels hold the same messages in different send order
  // have identical futures. Mid-round positions additionally carry the
  // undelivered remainder of the primed batch, also as a multiset: two
  // delivery orders that land on the same node states, RNG streams and
  // remaining messages have identical futures (the branch point only ever
  // offers the lowest-id target's distinct messages, a function of
  // exactly this data), so the explorer's round memo can collapse
  // commuting permutations.
  for (const DigestSum* multiset : {&lane_digests_, &unfired_}) {
    out = put_hash(put_u64(out, multiset->count), multiset->sum);
  }
  return hash128({buffer_.data(), out});
}

oracle::OracleReport Executor::check() { return oracle::check_system(*sys_); }

}  // namespace ssps::mc
