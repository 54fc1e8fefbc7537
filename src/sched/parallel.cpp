#include "sched/parallel.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ssps::sched {

ParallelScheduler::ParallelScheduler(unsigned threads) {
  SSPS_ASSERT_MSG(threads >= 1, "ParallelScheduler: need at least one worker");
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->ctx.lane = &worker->lane;
    worker->ctx.metrics = &worker->metrics;
    worker->ctx.pool = &worker->pool;
    worker->ctx.latency = &worker->latency;
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

void ParallelScheduler::run_slice(Worker& w) {
  sim::detail::tls_send_ctx = &w.ctx;
  sim::detail::tls_free_lane = &w.free_lane;
  w.delivered = sim::EngineSeam(*net_).deliver(w.begin, w.end, w.ctx);
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
    run_slice(*workers_[index]);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--running_ == 0) done_cv_.notify_one();
    }
  }
}

std::size_t ParallelScheduler::advance(sim::Network& net) {
  SSPS_ASSERT_MSG(!shutdown_, "advance: scheduler was retired");
  sim::EngineSeam seam(net);
  const std::size_t batch = seam.round_begin();
  const std::size_t worker_count = workers_.size();

  // Static shard partition: contiguous slot-id ranges of equal width.
  // The grouped batch is sorted by target id, so shard w's work is the
  // contiguous slice [boundary(w), boundary(w + 1)), read off the
  // counting-sort offsets (after round_begin, group_end(v) is the END of
  // id v's group).
  // Workers past the population get an empty slice. The partition never
  // influences the trace — only which thread performs which
  // (unobservable, see parallel.hpp) slice of the work.
  const std::size_t slots = net.slot_count();
  const std::size_t chunk = (slots + worker_count - 1) / worker_count;
  auto boundary = [&](std::size_t shard) {
    const std::size_t hi = std::min(shard * chunk, slots);
    return hi == 0 ? std::size_t{0} : static_cast<std::size_t>(seam.group_end(hi));
  };
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers_[w]->begin = boundary(w);
    workers_[w]->end = boundary(w + 1);
    workers_[w]->delivered = 0;
  }
  SSPS_ASSERT(boundary(worker_count) == batch);

  // Concurrent delivery phase. The mutex hand-offs publish net_ and the
  // slice bounds to the workers, and every worker-side write (node
  // state, lanes, shards) back to this thread — which is the round
  // barrier the incremental probes' plain (non-atomic) version counters
  // rely on.
  // Quiescent rounds (empty batch) skip the wake/barrier handshake —
  // every slice is empty, so sharding nothing is trace-safe and drain
  // loops don't pay N-1 futile wakeups per round.
  const bool fan_out = worker_count > 1 && batch > 0;
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
  run_slice(*workers_[0]);  // the calling thread is worker 0
  if (fan_out) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return running_ == 0; });
  }
  net_ = nullptr;
  seam.set_parallel_phase(false);

  // Deterministic merge, in worker order: repatriate deferred frees to
  // the pools that own them and splice each lane onto the main in-flight
  // buffer, which reproduces the serial emission order, since the shards
  // partition the grouped batch contiguously in target-id order. The
  // sequential timeout sweep then appends its sends after every lane,
  // exactly as the serial round does.
  std::size_t delivered = 0;
  for (std::unique_ptr<Worker>& wp : workers_) {
    Worker& w = *wp;
    for (const sim::DeferredFree& f : w.free_lane.deferred) {
      f.pool->reclaim(f.handle);
    }
    w.free_lane.deferred.clear();
    seam.lane().insert(seam.lane().end(), w.lane.begin(), w.lane.end());
    w.lane.clear();
    delivered += w.delivered;
  }
  seam.timeout_sweep();
  seam.round_end();
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
