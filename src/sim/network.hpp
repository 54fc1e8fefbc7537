// The simulated distributed system: node registry and channels.
//
// Implements the model of paper §1.1:
//   - each node has a channel holding a finite multiset of messages;
//   - messages are never lost or duplicated while their target is alive;
//   - delivery is non-FIFO (the schedulers remove messages in randomized
//     order) and fully asynchronous;
//   - fair message receipt and weakly fair action execution are enforced
//     by every scheduler (src/sched);
//   - crashed nodes (§3.3) cease to exist: pending and future messages to
//     them invoke no action.
//
// A scheduler is a policy over this model, not part of it: the Network
// keeps the nodes, the in-flight lane, the send path, crash/recover,
// snapshots and the telemetry attach points, and executes every schedule
// unit through the installed sched::Scheduler. Schedulers reach past the
// public API only through EngineSeam (below); an engine's own state —
// the timed engine's event heap and link model — lives in its sched::
// class. Unequal process speeds are a property of the round's Timeout
// sweep (set_max_timeout_period), so every engine runs them.
//
// Large-n layout: nodes live in one dense vector indexed by NodeId (a
// crashed node leaves a tombstone slot), and all channels share one
// append-only in-flight lane of envelopes — a send is a sequential push,
// and a round groups the whole lane by target through a shuffled index
// permutation. The lane may be split into segments: the parallel
// scheduler's worker lanes stay parked where their sends landed, ahead of
// the Network's main lane, and every reader walks all segments in that
// canonical order. Delivery order is a canonical function of
// (seed, call sequence) — independent of container internals, so runs
// replay bit-for-bit on any standard library. All send-side effects (lane
// append, metrics, pool allocation, sender attribution) are routed
// through a SendContext so a parallel worker's sends land in its private
// lane without any atomics on the hot path.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/message_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "sim/types.hpp"
#include "telemetry/latency.hpp"

namespace ssps::sched {
class Scheduler;
}  // namespace ssps::sched

namespace ssps::telemetry {
class RoundProbe;
}  // namespace ssps::telemetry

namespace ssps::sim {

/// One in-flight message (internal to the sim/sched layer). All
/// undelivered messages live in flat vectors ("lanes"), not in per-node
/// queues: sends append sequentially (cache-friendly), and the round
/// scheduler turns the lanes, read in canonical order, into the next
/// round's shuffled delivery batch. An envelope's place in the lanes is
/// its send order.
struct Envelope {
  NodeId to;
  /// Sender attribution: the node whose action executed the send, or null
  /// for harness-originated traffic (publishes, injections, control
  /// plane). Always maintained, from the sending context's acting node.
  /// The timed scheduler keys link selection and fault exemption on it;
  /// the deployment relays each node's sends to its target's shard by it.
  NodeId from;
  /// The message, in a slot of `pool`: the arena it was allocated from.
  /// Under the parallel scheduler each worker allocates from its own
  /// pool, so the envelope must remember its origin to recycle the slot.
  Message* msg = nullptr;
  MessagePool* pool = nullptr;
};
// Four words: every round copies each in-flight envelope into its target
// group, and a parallel worker reads the envelopes for its range out of
// lanes other cores wrote, so every byte here is paid per message per
// round.
static_assert(sizeof(Envelope) == 32, "an envelope is (to, from, msg, pool)");

/// `env` with a copy of its message allocated from `pool` (the model
/// checker's checkpoints). Aborts when the message class cannot be cloned;
/// MsgBase clones every copyable one.
inline Envelope clone_envelope(const Envelope& env, MessagePool& pool) {
  PooledMsg copy = env.msg->clone_into(pool);
  SSPS_ASSERT_MSG(copy, "clone_envelope: message class is not clonable");
  return Envelope{env.to, env.from, copy.release(), &pool};
}

/// Where the current thread's sends go: the in-flight lane that receives
/// the envelope, the Metrics shard that accounts it, and the MessagePool
/// that allocates it. The Network's own context targets its members; a
/// parallel round worker's context targets that worker's private lane,
/// shard and pool, which is what makes the delivery phase run without
/// cross-thread writes.
struct SendContext {
  std::vector<Envelope>* lane = nullptr;
  Metrics* metrics = nullptr;
  MessagePool* pool = nullptr;
  /// Delivery-latency shard (same ownership discipline as `metrics`:
  /// the Network's own tracker, or a worker's private shard folded at
  /// the round barrier).
  telemetry::LatencyTracker* latency = nullptr;
  /// The node whose action is executing on this context: the `from` of
  /// every send it makes. The Network sets it around each delivery and
  /// Timeout it runs and clears it afterwards, so it is null for sends
  /// from outside any action (harness publishes, injections).
  NodeId acting;
};

namespace detail {
/// Null outside parallel round phases; a parallel round worker points
/// this at its own contexts around its delivery slice and its Timeouts.
/// constinit: with a constant initializer no TU emits a dynamic-init
/// guard, so a read outside network.cpp is a plain TLS load.
extern thread_local constinit SendContext* tls_send_ctx;
}  // namespace detail

class Trace;

/// The simulated network. Owns all nodes, channels, randomness, the
/// message pool and the metrics.
class Network {
 public:
  explicit Network(std::uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  // ---- Topology management -------------------------------------------

  /// Constructs a node of type T (constructor receives the forwarded
  /// arguments), registers it, assigns a fresh NodeId and returns the id.
  template <typename T, typename... Args>
  NodeId spawn(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    return register_node(std::move(node));
  }

  /// Registers an externally constructed node.
  NodeId register_node(std::unique_ptr<Node> node);

  /// Fail-stop crash: the node ceases to exist. Its channel is dropped
  /// (pending pooled messages are reclaimed, including any the installed
  /// engine holds) and all future messages to it are swallowed (they
  /// invoke no action).
  void crash(NodeId id);

  /// True if the node exists and has not crashed.
  bool alive(NodeId id) const {
    const Slot* slot = find_slot(id);
    return slot != nullptr && slot->node != nullptr;
  }

  /// Round number at which `id` crashed (for the failure detector).
  std::optional<Round> crash_round(NodeId id) const;

  /// Typed access to a node. Aborts if the node is dead or of the wrong
  /// type. Types that define `static bool classof(NodeKind)` resolve with
  /// a one-byte tag check + static downcast; others (ad-hoc test nodes)
  /// fall back to dynamic_cast.
  template <typename T>
  T& node_as(NodeId id) {
    Slot* slot = find_slot(id);
    SSPS_ASSERT_MSG(slot != nullptr && slot->node != nullptr,
                    "node_as: unknown or crashed node");
    Node* node = slot->node.get();
    if constexpr (requires(NodeKind k) { { T::classof(k) } -> std::convertible_to<bool>; }) {
      SSPS_ASSERT_MSG(T::classof(node->kind()), "node_as: node has unexpected type");
      return *static_cast<T*>(node);
    } else {
      T* typed = dynamic_cast<T*>(node);
      SSPS_ASSERT_MSG(typed != nullptr, "node_as: node has unexpected type");
      return *typed;
    }
  }

  /// Ids of all alive nodes, in id order (deterministic).
  std::vector<NodeId> alive_ids() const;

  /// Number of alive nodes (crashed tombstones excluded).
  std::size_t alive_count() const { return alive_count_; }

  /// Total node slots ever created (alive + tombstones). Together with
  /// alive_count() this changes on every spawn or crash, which makes the
  /// pair a cheap topology epoch for incremental probes.
  std::size_t slot_count() const { return slots_.size(); }

  /// Every crash since construction, in crash order: (round, node). Rounds
  /// are non-decreasing, so "crashes visible under a detection delay" is a
  /// prefix of this log (see sim::FailureDetector::visible_crash_count).
  const std::vector<std::pair<Round, NodeId>>& crash_log() const {
    return crash_log_;
  }

  /// Calls fn(id, node) for every alive node in id order, without
  /// materializing an id vector (the per-round probe path).
  template <typename Fn>
  void for_each_alive(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].node != nullptr) fn(id_at(i), *slots_[i].node);
    }
  }

  // ---- Communication --------------------------------------------------

  /// Sends `msg` to `to` by placing it into to's channel. A send to a
  /// crashed/unknown node is counted and swallowed (paper §3.3: the
  /// address ceased to exist) and its pool slot is reclaimed immediately.
  /// Inline: this plus emit<T> is the complete per-message send path. All
  /// effects go through the calling thread's SendContext, so the same
  /// code serves the serial scheduler and every parallel worker.
  void send(NodeId to, PooledMsg msg) {
    SSPS_ASSERT(msg);
    SendContext& ctx = send_ctx();
    ctx.metrics->on_send(*msg);
    const bool enqueued = alive(to);
    if (trace_ != nullptr) [[unlikely]] trace_send(ctx.acting, to, *msg, enqueued);
    // Target crashed or never existed: the message invokes no action (its
    // pool slot is recycled as `msg` goes out of scope).
    if (!enqueued) return;
    enqueue(ctx, to, std::move(msg));
  }

  /// Allocates a T from the pool and sends it: the one-line send path for
  /// protocol code.
  template <typename T, typename... Args>
  void emit(NodeId to, Args&&... args) {
    send(to, send_ctx().pool->make<T>(std::forward<Args>(args)...));
  }

  /// Injects a message into a channel without attributing it to a sender;
  /// used by adversarial initial-state generators (corrupted messages).
  void inject(NodeId to, PooledMsg msg);

  /// The arena the calling thread allocates messages from: the Network's
  /// own pool, or the worker's private pool during a parallel round.
  MessagePool& pool() { return *send_ctx().pool; }
  const MessagePool& pool() const { return *const_cast<Network*>(this)->send_ctx().pool; }

  /// Bytes reserved by every message arena of this simulation (the main
  /// pool plus any scheduler-owned worker pools).
  std::size_t pool_reserved_bytes() const;

  /// Total number of messages currently sitting in channels: every
  /// segment of the lane plus whatever the installed engine holds (the
  /// timed event heap).
  std::size_t pending_messages() const;

  // ---- Scheduling -----------------------------------------------------

  /// Executes one schedule unit of the installed scheduler — a
  /// synchronous round (deliver every message pending at round start in
  /// randomized order, then fire the Timeout of every alive node that is
  /// due; the paper's "timeout interval") or a timed interval
  /// (sched::Scheduler::Unit) — then lets the scheduler sample any
  /// attached probe. Returns the number of messages it delivered.
  std::size_t run_unit();

  /// Runs `k` schedule units.
  void run_units(std::size_t k);

  /// Runs schedule units until `pred()` holds or `max_units` units
  /// elapse. Returns the number of units executed, or nullopt if the
  /// predicate never held.
  ///
  /// `pred` must be a function of the simulated system state (every
  /// convergence probe is). It is probed once per unit, and units that
  /// executed no action at all are skipped without re-evaluating it (see
  /// the quiescence note in network.cpp).
  std::optional<std::size_t> run_until(const std::function<bool()>& pred,
                                       std::size_t max_units);

  /// Installs the round scheduler: 1 = the serial scheduler (default),
  /// N > 1 = the parallel scheduler with N workers. Any thread count yields
  /// bit-identical delivery traces and reports (see src/sched/parallel.hpp
  /// for the argument); only wall-clock changes.
  void set_threads(unsigned threads);

  /// Installs a scheduler instance (set_threads is the entry point for
  /// the round schedulers). May be called mid-run at a unit boundary: the
  /// previous scheduler's parked lanes fold into the main lane, in
  /// canonical order, and the scheduler is retired, not destroyed,
  /// because in-flight envelopes may live in its worker pools. Aborts if
  /// the previous engine still holds in-flight messages — nothing would
  /// ever deliver them.
  void set_scheduler(std::unique_ptr<sched::Scheduler> scheduler);

  /// Worker count of the installed round scheduler.
  unsigned scheduler_threads() const;

  /// Current round: advanced once per unit (a timed interval is one
  /// round). Every run_until budget, phase duration, delivery-latency
  /// stamp and probe sample index is denominated in it.
  Round round() const { return round_; }

  /// Unequal process speeds (the asynchrony of paper §1.1): with k > 1,
  /// the timeout sweep fires slot i's Timeout only in every p_i-th round,
  /// with period p_i in [1, k] and a phase both taken from a pure hash of
  /// (construction seed, slot). Nothing draws from an rng stream, so the
  /// default k = 1 is exactly lockstep (every alive node fires every
  /// round), and a run may switch k between units under any engine.
  /// Deliveries are never gated: a slow node still receives every round,
  /// so a message chain can complete between two of its Timeouts.
  /// Requires k >= 1; refuses to run mid-round.
  void set_max_timeout_period(Round k);

  // ---- Crash recovery (periodic snapshots; see Node::snapshot_state) ---

  /// Turns on periodic snapshots: at the end of every round divisible by
  /// `every`, each alive node that implements snapshot_state has its
  /// encoded state captured (overwriting the previous capture). 0
  /// disables. Snapshots survive the node's crash — that is the point:
  /// recover() restores from the last capture, which may be arbitrarily
  /// stale by then.
  void enable_snapshots(Round every) { snapshot_every_ = every; }

  /// Captures snapshots of every alive node right now (also called
  /// automatically on the enable_snapshots cadence).
  void take_snapshots();

  /// The stored snapshot bytes for `id` (empty if none was ever taken).
  /// The mutable variant lets fault injection damage stored snapshots —
  /// recovery must then survive restore_state rejecting them.
  const std::vector<std::uint8_t>& snapshot_of(NodeId id) const;
  std::vector<std::uint8_t>& mutable_snapshot(NodeId id);

  /// Restarts a crashed node: re-occupies `id`'s tombstone slot with
  /// `node` (same NodeId — the paper's model has no address reuse issue
  /// because a recovered process IS the process, rebooted), then replays
  /// the stored snapshot through restore_state. Returns true if the
  /// snapshot restored cleanly; false when there was no snapshot or
  /// restore_state rejected it (the node then starts from its freshly
  /// constructed state and must re-stabilize from scratch). After
  /// recover, alive(id) is true and crash_round(id) is nullopt again.
  bool recover(NodeId id, std::unique_ptr<Node> node);

  // ---- Introspection ---------------------------------------------------

  /// The aggregated traffic counters. Under the parallel scheduler the
  /// per-worker shards are folded in (worker-id order) on access, so
  /// readers always observe totals bit-identical to a serial run.
  Metrics& metrics();
  const Metrics& metrics() const;

  /// The aggregated delivery-latency histograms (same fold-on-access
  /// discipline as metrics(): per-worker shards fold in first, so the
  /// distribution is bit-identical to a serial run).
  telemetry::LatencyTracker& latency();
  const telemetry::LatencyTracker& latency() const;

  /// Records one publication delivery that took `rounds` units end to
  /// end (called by the pub-sub layer through its MessageSink). Routed
  /// through the calling thread's SendContext, so a parallel worker
  /// records into its own shard without any atomics.
  void record_delivery_latency(std::uint32_t topic, Round rounds) {
    send_ctx().latency->record(topic, rounds);
  }

  /// Records a handler-level rejection: received contents that decoded
  /// into a well-formed message but that the handler refused as
  /// malformed or unservable (e.g. a non-Subscribe envelope for a topic
  /// the supervisor does not host). Routed through the calling thread's
  /// SendContext, so a parallel worker's rejections land in its own
  /// shard without atomics.
  void record_reject(std::size_t bytes) { send_ctx().metrics->on_reject(bytes); }

  /// Attaches a time-series probe: the installed scheduler pushes one
  /// RoundSample per unit. Pass nullptr to detach. The probe must
  /// outlive the attachment.
  void attach_round_probe(telemetry::RoundProbe* probe) { round_probe_ = probe; }

  /// Attaches a structured event trace recording every send and delivery
  /// with flow correlation (see src/telemetry/perfetto.hpp for the
  /// exporter). Serial-only: the event ring and the flow map are single
  /// members written on every send and delivery, so the scheduler must
  /// stay single-threaded while a trace is attached. Pass nullptr to
  /// detach.
  void attach_trace(Trace* trace);

  ssps::Rng& rng() { return rng_; }

  /// True if the union graph of explicit edges (node variables) and
  /// implicit edges (references inside channels) is weakly connected over
  /// the alive nodes, treating `anchor` (if provided) as an always-known
  /// reference (the paper's read-only supervisor star graph).
  bool weakly_connected(NodeId anchor = NodeId::null()) const;

 private:
  friend class EngineSeam;

  struct Slot {
    std::unique_ptr<Node> node;  // null = tombstone (crashed)
    Round crash_round = 0;
    /// Last periodic snapshot of the node's encoded state (empty = never
    /// captured). Deliberately kept across crash(): recover() restores
    /// from it.
    std::vector<std::uint8_t> snapshot;
  };

  Slot* find_slot(NodeId id) {
    const std::uint64_t index = id.value - 1;
    return id.value >= 1 && index < slots_.size() ? &slots_[index] : nullptr;
  }
  const Slot* find_slot(NodeId id) const {
    return const_cast<Network*>(this)->find_slot(id);
  }
  static NodeId id_at(std::size_t index) {
    return NodeId{static_cast<std::uint64_t>(index) + 1};
  }

  /// The calling thread's send context: a parallel worker's private
  /// context during its delivery slice, the Network's own otherwise.
  SendContext& send_ctx() {
    SendContext* tls = detail::tls_send_ctx;
    return tls != nullptr ? *tls : main_ctx_;
  }

  void enqueue(SendContext& ctx, NodeId to, PooledMsg&& msg) {
    MessagePool* pool = msg.pool();
    ctx.lane->push_back(Envelope{to, ctx.acting, msg.release(), pool});
  }

  // ---- Round phases (reached through EngineSeam) -----------------------
  //
  // Phase A turns the batch into grouped_: the seeded shuffle, then a
  // stable group-by-target counting sort. The serial engines group every
  // slot on the calling thread; the parallel scheduler's workers each
  // group their own slot range, which is the range they deliver to.

  /// A1 (sequential): makes `engine_batch`, or else the in-flight lane
  /// (every parked segment, then the main lane), this round's batch,
  /// shuffles it as (target, batch index) keys — the same Fisher-Yates
  /// draws as shuffling the envelopes themselves — and sets
  /// scatter_offsets_[v] to where target id v's group starts in grouped_.
  /// Returns the batch size.
  std::size_t shuffle_batch(std::vector<Envelope>* engine_batch);
  /// A2: copies the batch messages addressed to slots [first, last) into
  /// their groups, each group in shuffled order, and returns the grouped_
  /// range they occupy. Afterwards scatter_offsets_[v] is the END of
  /// target id v's group, for v in the range. Disjoint ranges may be
  /// grouped concurrently: each writes only its own cells of
  /// scatter_offsets_ and its own part of grouped_.
  std::pair<std::size_t, std::size_t> group_range(std::size_t first, std::size_t last);
  /// A3 (sequential): empties the lanes the batch was read from.
  void consume_batch();
  /// A1-A3 over every slot on the calling thread; returns the batch size.
  std::size_t group_batch(std::vector<Envelope>* engine_batch);
  /// The grouped array with room for `size` slots. Growing it drops the
  /// old cells, so call it only while no slot holds a live message.
  Envelope* grouped_slots(std::size_t size) {
    if (grouped_cap_ < size) {
      grouped_cap_ = std::max(size, grouped_cap_ * 2);
      grouped_ = std::make_unique<Envelope[]>(grouped_cap_);
    }
    return grouped_.get();
  }
  /// The i-th envelope of this round's batch, in canonical order.
  const Envelope& batch_at(std::uint32_t i) const {
    std::size_t s = 0;
    for (std::size_t k = 1; k < batch_.size(); ++k) s += i >= batch_[k].begin;
    return batch_[s].data[i - batch_[s].begin];
  }

  /// Phase B: delivers grouped_[begin, end) — a contiguous run of target
  /// groups — accounting through `ctx`. Safe to run concurrently for
  /// disjoint target ranges: a handler touches only its own node's state
  /// and sends through `ctx` (see the shard argument in
  /// src/sched/parallel.hpp). Returns the number delivered.
  std::size_t deliver_grouped_range(std::size_t begin, std::size_t end,
                                    SendContext& ctx);

  /// Phase C: fires the due Timeouts of slots [begin, end) in id order,
  /// sending through `ctx`; returns how many fired. Timeouts are
  /// parallel-phase actions: the parallel scheduler runs each worker's id
  /// range right after its delivery slice, so under more than one worker
  /// a Timeout may not spawn, crash or inject (the Network aborts), just
  /// like a handler.
  std::size_t fire_timeouts(std::size_t begin, std::size_t end, SendContext& ctx);
  /// Phase C over every slot through the main context: the serial
  /// engines' sweep. Sends append to the main lane after the round's
  /// deliveries. Returns how many fired.
  std::size_t timeout_sweep() { return fire_timeouts(0, slots_.size(), main_ctx_); }
  /// True if slot `index` fires its Timeout this round (always, at the
  /// default period 1; see set_max_timeout_period).
  bool timeout_due(std::size_t index) const;
  /// Reclaims an envelope without delivering it: the message invokes no
  /// action (crash drops, link loss, discarded branch slots).
  void reclaim(const Envelope& env);
  /// Pushes one probe sample for the unit just finished (no-op without
  /// an attached probe).
  void push_sample(std::size_t delivered);
  /// Reclaims every pending message addressed to `to` (crash path).
  void drop_pending_for(NodeId to);
  /// Calls fn for every in-flight envelope in canonical order: each
  /// parked segment, the main lane, then what the engine holds.
  void for_each_in_flight(const std::function<void(const Envelope&)>& fn) const;
  /// Folds the parked segments into the front of the main lane.
  void unpark();

  // ---- Telemetry hooks (cold paths; only reached when attached) -------
  void trace_send(NodeId from, NodeId to, const Message& msg, bool enqueued);
  void trace_deliver(const Envelope& env);
  /// Forgets a message's flow id before its pool slot is recycled on a
  /// non-delivery path (crash drop, destructor drain) — a reused slot
  /// must never alias an old flow.
  void trace_forget(const Message* msg);

  std::vector<Slot> slots_;  // index = NodeId.value - 1
  std::size_t alive_count_ = 0;
  /// The main lane: sends through the main context, in send order. It is
  /// the whole in-flight lane except under the parallel scheduler, whose
  /// worker lanes are parked ahead of it.
  std::vector<Envelope> pending_;
  /// Engine lanes parked as segments of the in-flight lane, in canonical
  /// order; they precede pending_. Owned by the installed engine.
  std::vector<std::vector<Envelope>*> parked_;
  std::vector<std::pair<Round, NodeId>> crash_log_;  // crash order
  Round round_ = 0;
  /// set_max_timeout_period's k (1 = every alive node fires every round).
  Round max_timeout_period_ = 1;
  std::uint64_t seed_ = 0;  // construction seed (engines salt their streams)
  ssps::Rng rng_;
  MessagePool pool_;
  Metrics metrics_;
  telemetry::LatencyTracker latency_;

  // ---- Snapshot / recovery state ---------------------------------------
  /// Periodic snapshot cadence in rounds (0 = off).
  Round snapshot_every_ = 0;

  /// The Network's own send context (lane = pending_, shard = metrics_,
  /// arena = pool_).
  SendContext main_ctx_;
  /// Set by the parallel scheduler around its concurrent delivery and
  /// Timeout phase; structure mutations (spawn/crash/inject) assert
  /// against it.
  bool in_parallel_phase_ = false;
  /// Timeouts fired in the last round (for the quiescence check).
  std::size_t last_round_timeouts_ = 0;

  /// Optional per-unit time-series sink (attach_round_probe).
  telemetry::RoundProbe* round_probe_ = nullptr;
  /// Optional structured event trace (attach_trace; forces serial).
  Trace* trace_ = nullptr;
  /// In-flight flow correlation: message -> flow id, assigned in send
  /// order. Only populated while a trace is attached.
  std::unordered_map<const Message*, std::uint64_t> flow_ids_;
  std::uint64_t next_flow_ = 0;

  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Schedulers replaced mid-run: their worker pools may still own
  /// in-flight envelopes, so they live until the Network dies.
  std::vector<std::unique_ptr<sched::Scheduler>> retired_schedulers_;

  // Phase A state, reused across rounds (capacity persists).
  /// One non-empty lane of this round's batch: where its envelopes are
  /// and the batch index its first one has.
  struct BatchLane {
    std::vector<Envelope>* lane;
    const Envelope* data;
    std::uint32_t begin;
  };
  std::vector<BatchLane> batch_;
  /// The shuffled batch: target id in the high word, batch index in the
  /// low word.
  std::vector<std::uint64_t> keys_;
  /// Per target id: where its group starts in grouped_, then, once its
  /// range is grouped, where it ends.
  std::vector<std::uint32_t> scatter_offsets_;
  // The grouped scatter target is a raw array, not a vector: every cell in
  // [0, batch) is overwritten by the counting sort each round, so element
  // lifetime bookkeeping (and the re-zeroing a vector resize would do) is
  // pure overhead — and no envelope here outlives the delivery loop, so
  // the destructor has nothing to reclaim from it.
  std::unique_ptr<Envelope[]> grouped_;
  std::size_t grouped_cap_ = 0;
};

/// The engine seam: everything a scheduler (src/sched, and the
/// deployment's lockstep scheduler in src/proc) may do to a Network
/// beyond its public API. A scheduler builds one around the Network it
/// advances; the seam holds no state of its own.
class EngineSeam {
 public:
  explicit EngineSeam(Network& net) : net_(net) {}

  // ---- Round phases ------------------------------------------------------
  /// Phase A over the in-flight lane: the messages pending at round start
  /// (every parked segment, then the main lane) become this round's
  /// batch, grouped over every slot; deliveries enqueue into the (now
  /// empty) main lane, which belongs to the next round.
  std::size_t round_begin() { return net_.group_batch(nullptr); }
  /// Phase A over a batch the engine assembled itself (the timed engine's
  /// due events, in canonical order).
  std::size_t round_begin(std::vector<Envelope>& batch) {
    return net_.group_batch(&batch);
  }
  /// Phase A over the in-flight lane in steps, for an engine whose workers
  /// group their own slot ranges: shuffle() on one thread, then group()
  /// for disjoint slot ranges covering every slot, then consume() on one
  /// thread once nothing reads the batch any more.
  std::size_t shuffle() { return net_.shuffle_batch(nullptr); }
  std::pair<std::size_t, std::size_t> group(std::size_t first, std::size_t last) {
    return net_.group_range(first, last);
  }
  void consume() { net_.consume_batch(); }
  std::size_t deliver(std::size_t begin, std::size_t end, SendContext& ctx) {
    return net_.deliver_grouped_range(begin, end, ctx);
  }
  /// Phase C over slots [begin, end) through `ctx`; returns how many fired.
  std::size_t timeouts(std::size_t begin, std::size_t end, SendContext& ctx) {
    return net_.fire_timeouts(begin, end, ctx);
  }
  /// Phase C over every slot through the main context.
  std::size_t timeout_sweep() { return net_.timeout_sweep(); }
  /// Finishes a round that fired `timeouts` Timeouts (advances the round
  /// clock).
  void round_end(std::size_t timeouts) {
    net_.last_round_timeouts_ = timeouts;
    ++net_.round_;
  }
  /// Sets the round clock: a restored checkpoint's round.
  void set_round(Round round) { net_.round_ = round; }

  // ---- Grouped slots of the current batch --------------------------------
  const Envelope& grouped(std::size_t i) const { return net_.grouped_[i]; }
  void reclaim(const Envelope& env) { net_.reclaim(env); }
  /// Writable grouped slots [0, size), for an engine that puts a saved
  /// batch back at its slot indices. Call only between rounds (or after
  /// reclaiming every unfired slot): the caller overwrites every cell.
  Envelope* regroup(std::size_t size) { return net_.grouped_slots(size); }

  // ---- Lane, main context, shard fold targets ----------------------------
  /// The main lane, for the serial engines, which read and patch the
  /// in-flight lane in place; aborts while engine lanes are parked. It
  /// holds the main context's sends in send order. A serial round
  /// consumes it before delivering, so right after a round it holds
  /// exactly that round's sends: the deployment names a relayed envelope
  /// by its index here.
  std::vector<Envelope>& lane() {
    SSPS_ASSERT_MSG(net_.parked_.empty(), "lane: engine lanes are parked");
    return net_.pending_;
  }
  /// Parks `lane` as the next segment of the in-flight lane, ahead of the
  /// main lane. Its envelopes stay where they are until the next round
  /// reads and consumes them; `lane` must outlive that, or the engine's
  /// retirement.
  void park(std::vector<Envelope>& lane) {
    SSPS_ASSERT_MSG(net_.pending_.empty(), "park: the main lane must come last");
    if (!lane.empty()) net_.parked_.push_back(&lane);
  }
  /// Calls fn for every in-flight envelope, in canonical order.
  void for_each_in_flight(const std::function<void(const Envelope&)>& fn) const {
    net_.for_each_in_flight(fn);
  }
  SendContext& main_ctx() { return net_.main_ctx_; }
  Metrics& fold_metrics() { return net_.metrics_; }
  telemetry::LatencyTracker& fold_latency() { return net_.latency_; }
  void set_parallel_phase(bool on) { net_.in_parallel_phase_ = on; }
  std::uint64_t seed() const { return net_.seed_; }

  // ---- Probe samples -----------------------------------------------------
  void push_sample(std::size_t delivered) { net_.push_sample(delivered); }

 private:
  Network& net_;
};

}  // namespace ssps::sim
