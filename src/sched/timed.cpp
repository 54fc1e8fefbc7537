#include "sched/timed.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ssps::sched {

TimedScheduler::TimedScheduler(sim::Network& net, sim::TimedConfig cfg,
                               sim::Corrupter* corrupter)
    : cfg_(std::move(cfg)),
      corrupter_(corrupter),
      now_(net.round() * sim::kTicksPerInterval),
      // The scheduler stream (Network::rng) must keep drawing exactly the
      // round scheduler's sequence for the constant-latency equivalence
      // proof, so link faults and latency sampling draw from a stream
      // salted off the network seed.
      link_rng_(sim::EngineSeam(net).seed() * 0x9e3779b97f4a7c15ULL +
                0x1d8e4e27c47d124fULL) {
  SSPS_ASSERT_MSG(net.pending_messages() == 0,
                  "TimedScheduler: switch modes before the first send");
}

TimedScheduler::~TimedScheduler() {
  for (const Event& ev : events_) ev.env.pool->destroy(ev.env.msg);
}

std::size_t TimedScheduler::advance(sim::Network& net) {
  sim::EngineSeam seam(net);
  // Harness sends since the last interval (publishes, injections) are
  // deemed sent at interval start: with the default constant one-interval
  // latency they land exactly at this interval's deadline — delivered
  // this round, as the round scheduler would.
  schedule_sends(seam, now_);
  const sim::Step deadline = now_ + sim::kTicksPerInterval;
  // Pop everything due by the deadline, in (time, send-order) order; that
  // canonical sequence is the shuffle input, exactly where the round
  // scheduler feeds its send-ordered batch in.
  batch_.clear();
  while (!events_.empty() && events_.front().at <= deadline) {
    std::pop_heap(events_.begin(), events_.end(), later);
    batch_.push_back(events_.back().env);
    events_.pop_back();
  }
  const std::size_t batch = seam.round_begin(batch_);
  const std::size_t delivered = seam.deliver(0, batch, seam.main_ctx());
  now_ = deadline;
  // Handler sends happened during this interval; stamp them at its end
  // (constant-1 latency then puts them at the next deadline in send
  // order — the next round's batch). Same for the timeout sweep's sends.
  schedule_sends(seam, now_);
  const std::size_t timeouts = seam.timeout_sweep();
  schedule_sends(seam, now_);
  seam.round_end(timeouts);
  return delivered;
}

void TimedScheduler::for_each_held(const HeldVisitor& fn) const {
  for (const Event& ev : events_) fn(ev.env);
}

void TimedScheduler::drop_held_for(sim::Network& net, sim::NodeId to) {
  if (events_.empty()) return;
  sim::EngineSeam seam(net);
  std::size_t kept = 0;
  for (const Event& ev : events_) {
    if (ev.env.to == to) {
      seam.reclaim(ev.env);
    } else {
      events_[kept++] = ev;
    }
  }
  events_.resize(kept);
  std::make_heap(events_.begin(), events_.end(), later);
}

void TimedScheduler::schedule_sends(sim::EngineSeam& seam, sim::Step send_tick) {
  std::vector<sim::Envelope>& lane = seam.lane();
  std::uint64_t seq = next_seq_;
  next_seq_ += lane.size();
  for (const sim::Envelope& env : lane) route(seam, env, seq++, send_tick);
  lane.clear();
}

void TimedScheduler::route(sim::EngineSeam& seam, const sim::Envelope& env,
                           std::uint64_t seq, sim::Step send_tick) {
  if (!env.from) {
    // Harness-originated (publish/inject/control plane): models the
    // experiment driver, not a network link — rides the clock at the
    // constant one-interval arrival but is exempt from link faults, so a
    // workload can never be silently unsatisfiable.
    push(send_tick + sim::kTicksPerInterval, seq, env);
    return;
  }
  const sim::LinkProfile& profile = cfg_.profile_between(env.from, env.to);
  if (cfg_.partitioned(env.from, env.to, send_tick) ||
      (profile.loss > 0.0 && link_rng_.uniform01() < profile.loss)) {
    seam.reclaim(env);
    ++dropped_;
    return;
  }
  sim::Envelope routed = env;
  sim::SendContext& ctx = seam.main_ctx();
  if (corrupter_ != nullptr && profile.corrupt > 0.0 &&
      link_rng_.uniform01() < profile.corrupt) {
    // Wire damage: serialize, mangle, re-decode (wire::CodecCorrupter).
    // Detected damage rejects the bytes — counted, never delivered;
    // undetected damage yields a valid-but-different message that rides
    // the link from here exactly like the original would have.
    ++corrupted_;
    sim::PooledMsg replacement = corrupter_->corrupt(*routed.msg, *ctx.pool, link_rng_);
    const std::size_t bytes = routed.msg->wire_size();
    seam.reclaim(routed);
    if (!replacement) {
      ++rejected_;
      ctx.metrics->on_reject(bytes);
      return;
    }
    routed.pool = replacement.pool();
    routed.msg = replacement.release();
  }
  sim::Step delay = profile.latency.sample_ticks(link_rng_);
  if (profile.reorder > 0.0 && link_rng_.uniform01() < profile.reorder) {
    // Reordering = extra jitter that pushes this message behind sends
    // made up to a full interval later.
    delay += 1 + link_rng_.below(sim::kTicksPerInterval);
  }
  if (profile.duplicate > 0.0 && link_rng_.uniform01() < profile.duplicate) {
    sim::PooledMsg copy = routed.msg->clone_into(*ctx.pool);
    if (copy) {  // null = not clonable; skip the duplicate
      sim::MessagePool* pool = copy.pool();
      const sim::Envelope dup{routed.to, routed.from, copy.release(), pool};
      const sim::Step dup_delay = profile.latency.sample_ticks(link_rng_);
      push(send_tick + dup_delay, next_seq_++, dup);
      ++duplicated_;
    }
  }
  push(send_tick + delay, seq, routed);
}

void TimedScheduler::push(sim::Step at, std::uint64_t seq, const sim::Envelope& env) {
  events_.push_back(Event{at, seq, env});
  std::push_heap(events_.begin(), events_.end(), later);
}

}  // namespace ssps::sched
