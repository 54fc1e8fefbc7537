#include "sim/network.hpp"

#include <algorithm>
#include <deque>

#include "common/decode.hpp"
#include "common/encode.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "telemetry/round_probe.hpp"

namespace ssps::sim {

namespace detail {
constinit thread_local SendContext* tls_send_ctx = nullptr;
}  // namespace detail

namespace {

/// SplitMix64's finalizer: a bijective 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Network::Network(std::uint64_t seed) : seed_(seed), rng_(seed) {
  main_ctx_.lane = &pending_;
  main_ctx_.metrics = &metrics_;
  main_ctx_.pool = &pool_;
  main_ctx_.latency = &latency_;
  scheduler_ = sched::make_round_scheduler(1);
}

Network::~Network() {
  // The in-flight lane holds raw pooled messages; reclaim them before the
  // pools die so their leak accounting stays exact. Envelopes may live in
  // scheduler-owned worker pools, and parked segments in the installed
  // scheduler's workers, so drain before the schedulers (and with them
  // their pools) are destroyed; the installed engine reclaims whatever it
  // holds as it is destroyed. The grouped scatter array is not drained: a
  // round's undelivered slots are indistinguishable there from delivered
  // ones. Every engine drains its round before the unit ends, so only a
  // teardown mid-round (a model-checker backtrack drops the system between
  // fires) leaves messages in it; the model checker discards them first,
  // and otherwise the pool's teardown sweep destroys them.
  unpark();
  for (const Envelope& env : pending_) env.pool->destroy(env.msg);
  pending_.clear();
  retired_schedulers_.clear();
  scheduler_.reset();
}

NodeId Network::register_node(std::unique_ptr<Node> node) {
  SSPS_ASSERT(node != nullptr);
  SSPS_ASSERT_MSG(!in_parallel_phase_,
                  "spawn during a parallel round is unsupported; mutate the "
                  "topology between rounds (or use the serial scheduler)");
  // Keep a stable pointer to the Node itself (heap-allocated) rather
  // than a Slot reference: on_register() may spawn further nodes, which
  // can reallocate the slot table.
  Node* raw = node.get();
  slots_.emplace_back();
  const NodeId id = id_at(slots_.size() - 1);
  raw->id_ = id;
  raw->net_ = this;
  raw->rng_ = rng_.split();
  slots_.back().node = std::move(node);
  ++alive_count_;
  raw->on_register();
  return id;
}

void Network::drop_pending_for(NodeId to) {
  auto drop_from = [&](std::vector<Envelope>& lane) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lane.size(); ++i) {
      if (lane[i].to == to) {
        reclaim(lane[i]);
      } else {
        lane[kept++] = lane[i];
      }
    }
    lane.resize(kept);
  };
  for (std::vector<Envelope>* lane : parked_) drop_from(*lane);
  drop_from(pending_);
  scheduler_->drop_held_for(*this, to);
}

void Network::unpark() {
  if (parked_.empty()) return;
  std::vector<Envelope> lane;
  for (std::vector<Envelope>* parked : parked_) {
    lane.insert(lane.end(), parked->begin(), parked->end());
    parked->clear();
  }
  lane.insert(lane.end(), pending_.begin(), pending_.end());
  pending_.swap(lane);
  parked_.clear();
}

void Network::reclaim(const Envelope& env) {
  if (trace_ != nullptr) [[unlikely]] trace_forget(env.msg);
  env.pool->destroy(env.msg);
}

void Network::crash(NodeId id) {
  Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr && slot->node != nullptr,
                  "crash: node unknown or already crashed");
  SSPS_ASSERT_MSG(!in_parallel_phase_,
                  "crash during a parallel round is unsupported; crash "
                  "between rounds (or use the serial scheduler)");
  drop_pending_for(id);
  slot->node.reset();
  slot->crash_round = round_;
  crash_log_.emplace_back(round_, id);
  --alive_count_;
}

std::optional<Round> Network::crash_round(NodeId id) const {
  const Slot* slot = find_slot(id);
  if (slot == nullptr || slot->node != nullptr) return std::nullopt;
  return slot->crash_round;
}

void Network::take_snapshots() {
  SSPS_ASSERT_MSG(!in_parallel_phase_, "take_snapshots: mid-round");
  common::Encoder enc;
  for (Slot& slot : slots_) {
    if (slot.node == nullptr) continue;
    enc.clear();
    if (slot.node->snapshot_state(enc)) slot.snapshot = enc.buffer();
  }
}

const std::vector<std::uint8_t>& Network::snapshot_of(NodeId id) const {
  const Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr, "snapshot_of: unknown node");
  return slot->snapshot;
}

std::vector<std::uint8_t>& Network::mutable_snapshot(NodeId id) {
  Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr, "mutable_snapshot: unknown node");
  return slot->snapshot;
}

bool Network::recover(NodeId id, std::unique_ptr<Node> node) {
  SSPS_ASSERT(node != nullptr);
  SSPS_ASSERT_MSG(!in_parallel_phase_,
                  "recover during a parallel round is unsupported");
  Slot* slot = find_slot(id);
  SSPS_ASSERT_MSG(slot != nullptr && slot->node == nullptr,
                  "recover: node unknown or still alive");
  // Mirror register_node's bookkeeping, but re-occupy the existing slot:
  // the recovered process keeps its NodeId, so every stale reference to
  // it in peers and in-flight messages points at the reborn node again.
  Node* raw = node.get();
  raw->id_ = id;
  raw->net_ = this;
  raw->rng_ = rng_.split();
  slot->node = std::move(node);
  ++alive_count_;
  raw->on_register();
  // Re-resolve: on_register may spawn, which can reallocate the slot table.
  slot = find_slot(id);
  if (slot->snapshot.empty()) return false;
  common::Decoder dec(slot->snapshot);
  return raw->restore_state(dec);
}

std::vector<NodeId> Network::alive_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(alive_count_);
  for_each_alive([&](NodeId id, const Node&) { ids.push_back(id); });
  return ids;
}

void Network::inject(NodeId to, PooledMsg msg) {
  SSPS_ASSERT(msg);
  SSPS_ASSERT_MSG(alive(to), "inject: unknown node");
  SSPS_ASSERT_MSG(!in_parallel_phase_, "inject: forbidden during a parallel round");
  metrics_.on_inject(msg->wire_size());
  enqueue(main_ctx_, to, std::move(msg));
}

void Network::for_each_in_flight(
    const std::function<void(const Envelope&)>& fn) const {
  for (const std::vector<Envelope>* lane : parked_) {
    for (const Envelope& env : *lane) fn(env);
  }
  for (const Envelope& env : pending_) fn(env);
  scheduler_->for_each_held(fn);
}

std::size_t Network::pending_messages() const {
  std::size_t count = pending_.size();
  for (const std::vector<Envelope>* lane : parked_) count += lane->size();
  scheduler_->for_each_held([&](const Envelope&) { ++count; });
  return count;
}

std::size_t Network::shuffle_batch(std::vector<Envelope>* engine_batch) {
  // Batch order is canonical (send order — under the parallel scheduler,
  // the parked lanes reproduce it exactly; the timed engine's
  // time-then-send order otherwise), so the shuffled delivery order
  // depends only on the seed, never on the worker count.
  batch_.clear();
  keys_.clear();
  scatter_offsets_.assign(slots_.size() + 1, 0);
  auto take = [&](std::vector<Envelope>& lane) {
    if (lane.empty()) return;
    const std::size_t begin = keys_.size();
    batch_.push_back(BatchLane{&lane, lane.data(), static_cast<std::uint32_t>(begin)});
    keys_.resize(begin + lane.size());
    for (std::size_t j = 0; j < lane.size(); ++j) {
      const std::uint64_t to = lane[j].to.value;
      keys_[begin + j] = (to << 32) | (begin + j);
      ++scatter_offsets_[to];
    }
  };
  if (engine_batch != nullptr) {
    take(*engine_batch);
  } else {
    for (std::vector<Envelope>* lane : parked_) take(*lane);
    take(pending_);
    parked_.clear();
  }
  const std::size_t size = keys_.size();
  SSPS_ASSERT_MSG(size <= UINT32_MAX && slots_.size() < UINT32_MAX,
                  "round batch or population exceeds 2^32");
  // Fisher-Yates draws depend only on the length, so shuffling keys gives
  // the permutation shuffling the envelopes would.
  rng_.shuffle(keys_);
  grouped_slots(size);
  // Group the shuffled batch by target (a stable counting sort), so each
  // node's state is pulled into cache once per round, not once per
  // message. Observably equivalent to delivering in fully shuffled
  // order: nodes interact only through messages that arrive next round,
  // so cross-node interleaving within a round cannot affect any node's
  // trajectory — while each channel still sees a uniformly random
  // permutation of its own messages (inherited from the shuffle). The
  // same argument is what lets the parallel scheduler deliver disjoint
  // target ranges concurrently (src/sched/parallel.hpp). Target id v's
  // group starts after every message to a lower id:
  std::uint32_t running = 0;
  for (std::uint32_t& cell : scatter_offsets_) {
    const std::uint32_t count = cell;
    cell = running;
    running += count;
  }
  return size;
}

std::pair<std::size_t, std::size_t> Network::group_range(std::size_t first,
                                                         std::size_t last) {
  if (first == last) return {0, 0};
  const std::uint64_t lo = id_at(first).value;
  const std::uint64_t span = last - first;
  std::uint32_t* next = scatter_offsets_.data();
  const std::size_t begin = next[lo];
  for (const std::uint64_t key : keys_) {
    const std::uint64_t to = key >> 32;
    if (to - lo < span) grouped_[next[to]++] = batch_at(static_cast<std::uint32_t>(key));
  }
  // next[v] is now the END of target id v's group (groups lie in id
  // order).
  return {begin, next[lo + span - 1]};
}

void Network::consume_batch() {
  for (const BatchLane& lane : batch_) lane.lane->clear();
  batch_.clear();
}

std::size_t Network::group_batch(std::vector<Envelope>* engine_batch) {
  const std::size_t size = shuffle_batch(engine_batch);
  group_range(0, slots_.size());
  consume_batch();
  return size;
}

std::size_t Network::deliver_grouped_range(std::size_t begin, std::size_t end,
                                           SendContext& ctx) {
  std::size_t delivered = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Envelope& env = grouped_[i];
    // Re-resolve per message: a handler may crash its own node or spawn
    // (which can reallocate the slot table) at any point mid-round under
    // the serial scheduler. (The parallel scheduler forbids both, so its
    // workers only ever read the slot table.)
    Slot* slot = find_slot(env.to);
    if (slot->node == nullptr) {
      // Crashed mid-round: reclaim, invoke nothing.
      reclaim(env);
      continue;
    }
    ctx.metrics->on_deliver(env.to);
    if (trace_ != nullptr) [[unlikely]] trace_deliver(env);
    ctx.acting = env.to;
    slot->node->handle(PooledMsg(env.pool, env.msg));
    ++delivered;
  }
  ctx.acting = NodeId::null();
  return delivered;
}

std::size_t Network::fire_timeouts(std::size_t begin, std::size_t end,
                                   SendContext& ctx) {
  // Fire Timeouts in id order (a sweep over the dense table). Equivalent
  // to a randomized order: a Timeout reads and writes only its own node's
  // state and draws from its own per-node stream, and everything it sends
  // is delivered next round, so cross-node firing order within a round is
  // unobservable — which is also why disjoint ranges may run concurrently.
  // Index-based iteration up to the caller's size snapshot: under the
  // serial engines a timeout() may spawn (reallocating the table), and
  // nodes born mid-round first fire next round.
  std::size_t fired = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (slots_[i].node == nullptr || !timeout_due(i)) continue;
    ctx.acting = id_at(i);
    slots_[i].node->timeout();
    ++fired;
  }
  ctx.acting = NodeId::null();
  return fired;
}

bool Network::timeout_due(std::size_t index) const {
  if (max_timeout_period_ == 1) return true;
  // A pure function of (seed, slot, k, round): no stream is drawn, so a
  // run's delivery trace depends on the periods only through the
  // Timeouts they skip.
  const std::uint64_t h = mix64(seed_ ^ mix64(index + 0x7f4a7c159e3779b9ULL));
  const Round period = 1 + (h % max_timeout_period_);
  const Round phase = (h >> 32) % period;
  return (round_ + phase) % period == 0;
}

void Network::set_max_timeout_period(Round k) {
  SSPS_ASSERT_MSG(k >= 1, "set_max_timeout_period: need k >= 1");
  SSPS_ASSERT_MSG(!in_parallel_phase_ && send_ctx().acting.is_null(),
                  "set_max_timeout_period: mid-round");
  max_timeout_period_ = k;
}

std::size_t Network::run_unit() {
  const std::size_t delivered = scheduler_->advance(*this);
  // Periodic crash-recovery checkpoints: capture at round boundaries on
  // the configured cadence. Pure state reads (no rng draws), so enabling
  // snapshots never perturbs a run's delivery trace.
  if (snapshot_every_ > 0 && round_ % snapshot_every_ == 0) take_snapshots();
  scheduler_->sample(*this, delivered);
  return delivered;
}

void Network::push_sample(std::size_t delivered) {
  if (round_probe_ == nullptr) return;
  telemetry::RoundSample sample;
  sample.round = round_;
  sample.delivered = delivered;
  sample.timeouts = last_round_timeouts_;
  sample.in_flight = pending_messages();
  sample.alive = alive_count_;
  round_probe_->push(sample);
}

void Network::run_units(std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) run_unit();
}

std::optional<std::size_t> Network::run_until(const std::function<bool()>& pred,
                                              std::size_t max_units) {
  // Quiescence short-circuit: a round that delivered zero messages and
  // fired zero timeouts executed no action, so no node variable and no
  // channel changed — a predicate over the simulated state that was false
  // before such a round is still false after it (the same reasoning as the
  // delivery-grouping note in shuffle_batch: state only moves when an
  // action runs). Skipping the re-evaluation is therefore observably equivalent;
  // it matters for waits over empty or fully-crashed populations, where
  // every round is quiescent and an O(n)-ish probe per round would be pure
  // overhead.
  bool known_false = false;
  for (std::size_t i = 0; i < max_units; ++i) {
    if (!known_false) {
      if (pred()) return i;
      known_false = true;
    }
    const std::size_t delivered = run_unit();
    if (delivered > 0 || last_round_timeouts_ > 0) known_false = false;
  }
  if (known_false) return std::nullopt;
  return pred() ? std::optional<std::size_t>(max_units) : std::nullopt;
}

void Network::set_scheduler(std::unique_ptr<sched::Scheduler> scheduler) {
  SSPS_ASSERT(scheduler != nullptr);
  SSPS_ASSERT_MSG(!in_parallel_phase_, "set_scheduler: mid-round");
  SSPS_ASSERT_MSG(trace_ == nullptr || scheduler->threads() == 1,
                  "set_scheduler: tracing is serial-only");
  if (scheduler_ != nullptr) {
    std::size_t held = 0;
    scheduler_->for_each_held([&](const Envelope&) { ++held; });
    SSPS_ASSERT_MSG(held == 0,
                    "set_scheduler: the installed engine still holds in-flight "
                    "messages");
    // The old engine's parked lanes join the main lane in canonical
    // order, so the new engine reads them as it would have.
    unpark();
    // In-flight envelopes may have been allocated from the old
    // scheduler's worker pools; retire it (alive until the Network dies)
    // instead of destroying those slabs under the messages. It will
    // never run again: metrics shards fold in now, worker threads join.
    scheduler_->flush_metrics(*this);
    scheduler_->retire();
    retired_schedulers_.push_back(std::move(scheduler_));
  }
  scheduler_ = std::move(scheduler);
}

void Network::set_threads(unsigned threads) {
  SSPS_ASSERT_MSG(threads >= 1, "set_threads: need at least one worker");
  if (threads != scheduler_threads()) set_scheduler(sched::make_round_scheduler(threads));
}

unsigned Network::scheduler_threads() const { return scheduler_->threads(); }

Metrics& Network::metrics() {
  // Fold any per-worker shards in before handing the counters out; the
  // hot send/deliver paths only ever touch their own shard, so every
  // external reader (and reset()) goes through here. Retired schedulers
  // flushed at retirement and never run again.
  SSPS_ASSERT_MSG(!in_parallel_phase_, "metrics: unavailable mid-phase");
  scheduler_->flush_metrics(*this);
  return metrics_;
}

const Metrics& Network::metrics() const {
  return const_cast<Network*>(this)->metrics();
}

telemetry::LatencyTracker& Network::latency() {
  // Same fold-on-access discipline as metrics(): flush_metrics folds the
  // per-worker latency shards alongside the metrics shards.
  SSPS_ASSERT_MSG(!in_parallel_phase_, "latency: unavailable mid-phase");
  scheduler_->flush_metrics(*this);
  return latency_;
}

const telemetry::LatencyTracker& Network::latency() const {
  return const_cast<Network*>(this)->latency();
}

void Network::attach_trace(Trace* trace) {
  SSPS_ASSERT_MSG(trace == nullptr || scheduler_threads() == 1,
                  "attach_trace: tracing requires the serial scheduler");
  trace_ = trace;
  if (trace == nullptr) flow_ids_.clear();
}

void Network::trace_send(NodeId from, NodeId to, const Message& msg, bool enqueued) {
  const std::uint64_t flow = ++next_flow_;
  // Swallowed sends get an event but no map entry: their pool slot is
  // recycled immediately, and a reused slot must not alias this flow.
  if (enqueued) flow_ids_[&msg] = flow;
  trace_->record(round_, from, to, msg.name(), TraceEventKind::kSend, flow);
}

void Network::trace_deliver(const Envelope& env) {
  std::uint64_t flow = 0;
  auto it = flow_ids_.find(env.msg);
  if (it != flow_ids_.end()) {
    flow = it->second;
    flow_ids_.erase(it);
  }
  trace_->record(round_, NodeId::null(), env.to, env.msg->name(),
                 TraceEventKind::kDeliver, flow);
}

void Network::trace_forget(const Message* msg) { flow_ids_.erase(msg); }

std::size_t Network::pool_reserved_bytes() const {
  return pool_.reserved_bytes() + scheduler_->reserved_bytes();
}

bool Network::weakly_connected(NodeId anchor) const {
  if (alive_count_ == 0) return true;
  // Build the undirected adjacency implied by explicit + implicit edges,
  // indexed densely by slot.
  std::vector<std::vector<std::uint32_t>> adj(slots_.size());
  auto add_refs = [&](NodeId id, const std::vector<NodeId>& refs) {
    const auto index = static_cast<std::uint32_t>(id.value - 1);
    for (NodeId r : refs) {
      if (!r || r == id || !alive(r)) continue;
      const auto r_index = static_cast<std::uint32_t>(r.value - 1);
      adj[index].push_back(r_index);
      adj[r_index].push_back(index);
    }
  };
  std::vector<NodeId> refs;
  std::size_t first_alive = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.node == nullptr) continue;
    if (first_alive == slots_.size()) first_alive = i;
    const NodeId id = id_at(i);
    refs.clear();
    slot.node->collect_refs(refs);
    if (anchor && id != anchor) refs.push_back(anchor);
    add_refs(id, refs);
  }
  for_each_in_flight([&](const Envelope& env) {
    if (!alive(env.to)) return;
    refs.clear();
    env.msg->collect_refs(refs);
    add_refs(env.to, refs);
  });
  // BFS from the first alive node.
  std::vector<bool> seen(slots_.size(), false);
  std::deque<std::uint32_t> queue;
  queue.push_back(static_cast<std::uint32_t>(first_alive));
  seen[first_alive] = true;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const std::uint32_t cur = queue.front();
    queue.pop_front();
    for (std::uint32_t nxt : adj[cur]) {
      if (!seen[nxt]) {
        seen[nxt] = true;
        ++reached;
        queue.push_back(nxt);
      }
    }
  }
  return reached == alive_count_;
}

}  // namespace ssps::sim
