#include "sched/async.hpp"

#include <algorithm>

namespace ssps::sched {

std::size_t AsyncScheduler::advance(sim::Network& net) {
  sim::EngineSeam seam(net);
  seam.tick();
  const sim::Step now = net.now();

  // Fairness enforcement must serve by AGE, not by discovery order: under
  // overload (more overdue work than one action per step) a first-found
  // policy would starve whatever sorts last — violating the model's fair
  // receipt / weakly fair execution. Oldest-first guarantees every message
  // and every Timeout is served within a bounded lag. Ties break towards
  // the earliest send (lowest seq) / lowest slot index, which is
  // canonical. Both "oldest" queries are lazy min-heaps — O(log n)
  // amortized per step where full scans would make k-step runs quadratic.
  sync(net, seam);
  const auto [msg_age, msg_index] = oldest_pending(now, seam);
  const auto [idle, slot] = stalest_timeout(now, seam);
  if (msg_age > cfg_.max_message_age && msg_age >= idle) {
    deliver_at(seam, msg_index);
    return 1;
  }
  if (idle > cfg_.max_timeout_gap) {
    fire_timeout(seam, slot, now);
    return 0;
  }
  if (msg_age > cfg_.max_message_age) {
    deliver_at(seam, msg_index);
    return 1;
  }

  const std::vector<sim::Envelope>& lane = seam.lane();
  const bool prefer_timeout = lane.empty() || net.rng().below(256) < cfg_.timeout_bias;
  if (prefer_timeout && net.alive_count() > 0) {
    const sim::NodeId id = alive_[net.rng().pick_index(alive_)];
    fire_timeout(seam, static_cast<std::size_t>(id.value - 1), now);
    return 0;
  }
  if (lane.empty()) return 0;

  // Pick a uniformly random pending message.
  deliver_at(seam, static_cast<std::size_t>(net.rng().below(lane.size())));
  return 1;
}

void AsyncScheduler::sync(sim::Network& net, sim::EngineSeam& seam) {
  if (epoch_ != net.topology_epoch()) {
    // A spawn, crash or recover changed the alive set, and a crash
    // compacts the lane (stale positions): index everything afresh.
    epoch_ = net.topology_epoch();
    msg_heap_.clear();
    synced_ = 0;
    timeout_heap_.clear();
    for (std::size_t i = 0; i < net.slot_count(); ++i) {
      if (seam.alive_at(i)) {
        timeout_heap_.push_back({seam.last_timeout(i), static_cast<std::uint32_t>(i)});
      }
    }
    std::make_heap(timeout_heap_.begin(), timeout_heap_.end(), timeout_later);
    alive_ = net.alive_ids();
  }
  const std::vector<sim::Envelope>& lane = seam.lane();
  for (std::size_t i = synced_; i < lane.size(); ++i) {
    msg_heap_.push_back({lane[i].sent_at, lane[i].seq, static_cast<std::uint32_t>(i)});
    std::push_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
  }
  synced_ = lane.size();
}

std::pair<sim::Step, std::size_t> AsyncScheduler::oldest_pending(sim::Step now,
                                                                 sim::EngineSeam& seam) {
  const std::vector<sim::Envelope>& lane = seam.lane();
  while (!msg_heap_.empty()) {
    const MsgEntry& top = msg_heap_.front();
    if (top.index < lane.size() && lane[top.index].seq == top.seq &&
        lane[top.index].sent_at == top.sent_at) {
      return {now - top.sent_at, top.index};
    }
    // Stale: the envelope was delivered or moved since this entry was
    // pushed (seq values are never reused, so a match is conclusive).
    // Discard and look deeper.
    std::pop_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
    msg_heap_.pop_back();
  }
  return {0, 0};
}

std::pair<sim::Step, std::size_t> AsyncScheduler::stalest_timeout(sim::Step now,
                                                                  sim::EngineSeam& seam) {
  while (!timeout_heap_.empty()) {
    const TimeoutEntry& top = timeout_heap_.front();
    if (seam.alive_at(top.slot) && seam.last_timeout(top.slot) == top.last_timeout) {
      const sim::Step idle = now - top.last_timeout;
      if (idle == 0) break;  // every alive node fired this very step
      return {idle, top.slot};
    }
    // Crashed since, or re-fired (a fresher entry exists): discard.
    std::pop_heap(timeout_heap_.begin(), timeout_heap_.end(), timeout_later);
    timeout_heap_.pop_back();
  }
  return {0, 0};
}

void AsyncScheduler::deliver_at(sim::EngineSeam& seam, std::size_t index) {
  std::vector<sim::Envelope>& lane = seam.lane();
  const sim::Envelope env = lane[index];
  // Non-FIFO channel: order does not matter, so swap-remove.
  lane[index] = lane.back();
  lane.pop_back();
  if (index < lane.size()) {
    // The back envelope moved into `index`; its old heap entry no longer
    // resolves, so index the new position afresh (the stale entry fails
    // validation and is discarded on pop).
    msg_heap_.push_back({lane[index].sent_at, lane[index].seq,
                         static_cast<std::uint32_t>(index)});
    std::push_heap(msg_heap_.begin(), msg_heap_.end(), msg_later);
  }
  synced_ = std::min(synced_, lane.size());
  ++window_delivered_;
  seam.deliver_one(env);
}

void AsyncScheduler::fire_timeout(sim::EngineSeam& seam, std::size_t slot,
                                  sim::Step now) {
  timeout_heap_.push_back({now, static_cast<std::uint32_t>(slot)});
  std::push_heap(timeout_heap_.begin(), timeout_heap_.end(), timeout_later);
  ++window_timeouts_;
  seam.fire_timeout(slot);
}

void AsyncScheduler::sample(sim::Network& net, std::size_t delivered) {
  (void)delivered;  // accumulated in the window counters by advance()
  sim::EngineSeam seam(net);
  if (seam.probing() && cfg_.probe_stride > 0 && net.now() % cfg_.probe_stride == 0) {
    seam.push_sample(net.now(), window_delivered_, window_timeouts_);
    window_delivered_ = 0;
    window_timeouts_ = 0;
  }
}

std::size_t AsyncScheduler::settle_stride(const sim::Network& net) const {
  return std::max<std::size_t>(net.alive_count(), 1);
}

}  // namespace ssps::sched
