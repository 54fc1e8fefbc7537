#include "sched/parallel.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ssps::sched {

ParallelScheduler::ParallelScheduler(unsigned threads) {
  SSPS_ASSERT_MSG(threads >= 1, "ParallelScheduler: need at least one worker");
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    auto worker = std::make_unique<Worker>();
    for (sim::SendContext* ctx : {&worker->ctx, &worker->timeout_ctx}) {
      ctx->metrics = &worker->metrics;
      ctx->pool = &worker->pool;
      ctx->latency = &worker->latency;
    }
    worker->free_lane.own = &worker->pool;
    workers_.push_back(std::move(worker));
  }
  threads_.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelScheduler::~ParallelScheduler() { stop_workers(); }

void ParallelScheduler::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ParallelScheduler::run_shard(Worker& w) {
  sim::EngineSeam seam(*net_);
  // Group the messages addressed to this worker's slot range, deliver
  // them, then fire the range's Timeouts, each action sending into the
  // worker's own lane for this round.
  const auto [begin, end] = seam.group(w.first_slot, w.last_slot);
  w.grouped = end - begin;
  sim::detail::tls_free_lane = &w.free_lane;
  sim::detail::tls_send_ctx = &w.ctx;
  w.delivered = seam.deliver(begin, end, w.ctx);
  sim::detail::tls_send_ctx = &w.timeout_ctx;
  w.timeouts = seam.timeouts(w.first_slot, w.last_slot, w.timeout_ctx);
  sim::detail::tls_send_ctx = nullptr;
  sim::detail::tls_free_lane = nullptr;
}

void ParallelScheduler::worker_main(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    run_shard(*workers_[index]);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--running_ == 0) done_cv_.notify_one();
    }
  }
}

std::size_t ParallelScheduler::advance(sim::Network& net) {
  SSPS_ASSERT_MSG(!shutdown_, "advance: scheduler was retired");
  sim::EngineSeam seam(net);
  const std::size_t batch = seam.shuffle();
  const std::size_t worker_count = workers_.size();

  // Static shard partition: contiguous slot ranges of equal width. Each
  // worker groups, delivers to and times out exactly its own range.
  // Workers past the population get an empty range. The partition never
  // influences the trace — only which thread performs which
  // (unobservable, see parallel.hpp) share of the work. The round's sends
  // go to the lanes the batch was not read from, so no worker writes a
  // lane another may still be grouping from.
  const std::size_t slots = net.slot_count();
  const std::size_t chunk = (slots + worker_count - 1) / worker_count;
  for (std::size_t w = 0; w < worker_count; ++w) {
    Worker& worker = *workers_[w];
    worker.first_slot = std::min(w * chunk, slots);
    worker.last_slot = std::min((w + 1) * chunk, slots);
    worker.ctx.lane = &worker.lanes[parity_];
    worker.timeout_ctx.lane = &worker.timeout_lanes[parity_];
  }

  // The concurrent phase. The mutex hand-offs publish net_, the shuffled
  // batch and the ranges to the workers, and every worker-side write
  // (node state, lanes, shards) back to this thread — which is the round
  // barrier the incremental probes' plain (non-atomic) version counters
  // rely on. The calling thread is worker 0.
  const bool fan_out = worker_count > 1;
  seam.set_parallel_phase(true);
  net_ = &net;
  if (fan_out) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++generation_;
      running_ = worker_count - 1;
    }
    work_cv_.notify_all();
  }
  run_shard(*workers_[0]);
  if (fan_out) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return running_ == 0; });
  }
  net_ = nullptr;
  seam.set_parallel_phase(false);

  // The round barrier, in worker order: the batch is consumed, deferred
  // frees go back to the pools that own them, and every delivery lane and
  // then every Timeout lane is parked as a segment of the in-flight lane.
  // Deliveries by target, then Timeouts by id, is exactly the serial
  // round's send order.
  seam.consume();
  std::size_t grouped = 0;
  std::size_t delivered = 0;
  std::size_t timeouts = 0;
  for (std::unique_ptr<Worker>& wp : workers_) {
    Worker& w = *wp;
    for (const sim::DeferredFree& f : w.free_lane.deferred) {
      f.pool->reclaim(f.slot, f.size_class);
    }
    w.free_lane.deferred.clear();
    seam.park(w.lanes[parity_]);
    grouped += w.grouped;
    delivered += w.delivered;
    timeouts += w.timeouts;
  }
  for (std::unique_ptr<Worker>& wp : workers_) seam.park(wp->timeout_lanes[parity_]);
  parity_ ^= 1;
  SSPS_ASSERT(grouped == batch);
  seam.round_end(timeouts);
  return delivered;
}

void ParallelScheduler::flush_metrics(sim::Network& net) {
  sim::EngineSeam seam(net);
  for (std::unique_ptr<Worker>& wp : workers_) {
    wp->metrics.fold_into(seam.fold_metrics());
    wp->metrics.reset();
    wp->latency.fold_into(seam.fold_latency());
    wp->latency.reset();
  }
}

std::size_t ParallelScheduler::reserved_bytes() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Worker>& wp : workers_) {
    total += wp->pool.reserved_bytes();
  }
  return total;
}

}  // namespace ssps::sched
