#include "mc/explorer.hpp"

#include <algorithm>
#include <optional>

#include "common/rng.hpp"

namespace ssps::mc {

Explorer::Explorer(const Executor::Options& options)
    : exec_(options), max_rounds_(options.max_rounds) {}

Certificate Explorer::run() {
  trace_.clear();
  visited_.clear();
  grey_.clear();
  round_memo_.clear();
  out_ = Certificate{};
  const Result r = explore_boundary(0);
  out_.certified = r == Result::kAllLegal;
  return out_;
}

void Explorer::record_counterexample(Counterexample::Kind kind,
                                     std::size_t depth) {
  Counterexample ce;
  ce.kind = kind;
  ce.trace = trace_;
  ce.violation = exec_.check().summary();
  ce.rounds = depth;
  out_.counterexample = std::move(ce);
}

Explorer::Result Explorer::explore_boundary(std::size_t depth) {
  out_.stats.max_depth = std::max(out_.stats.max_depth, depth);
  if (exec_.check().ok()) {
    // Legal boundary: this schedule converged. The paper's closure
    // property (legal states only step to legal states) makes it a true
    // endpoint — nothing below it needs exploring.
    ++out_.stats.goal_states;
    return Result::kAllLegal;
  }
  if (depth >= max_rounds_) {
    record_counterexample(Counterexample::Kind::kDepthBound, depth);
    return Result::kCounterexample;
  }
  const StateHash h = exec_.state_hash();
  if (grey_.contains(h)) {
    // The schedule walked back into a state on its own path without ever
    // passing a legal state: a genuine livelock cycle.
    record_counterexample(Counterexample::Kind::kLivelock, depth);
    return Result::kCounterexample;
  }
  if (visited_.contains(h)) {
    ++out_.stats.deduped;
    return Result::kAllLegal;
  }
  ++out_.stats.visited;
  grey_.insert(h);
  exec_.prime();
  const Result r = explore_round(depth);
  grey_.erase(h);
  // Only proven states turn black; on a counterexample the search aborts
  // anyway, so nothing half-explored is ever consulted.
  if (r == Result::kAllLegal) visited_.insert(h);
  return r;
}

Explorer::Result Explorer::explore_round(std::size_t depth) {
  const Enabled en = exec_.enabled();
  out_.stats.por_pruned += en.pruned;
  if (en.slots.empty()) {
    exec_.barrier();
    trace_.push_back(kAdvance);
    const Result r = explore_boundary(depth + 1);
    if (r == Result::kCounterexample) return r;
    trace_.pop_back();
    return Result::kAllLegal;
  }
  // Round memo: two delivery orders whose prefixes commute reach the same
  // canonical position (node states + RNG streams + remaining multiset),
  // and the branch point ahead is a pure function of that position — so a
  // position once proven all-legal can answer every later arrival. This
  // collapses the k! orderings of commuting deliveries toward the 2^k
  // subsets actually distinguishable. Same proven-subtree caveat as the
  // boundary black set (see the file header).
  const StateHash position = exec_.state_hash();
  if (round_memo_.contains(position)) {
    ++out_.stats.memo_hits;
    return Result::kAllLegal;
  }
  // The executor already sits at this branch point for the first choice;
  // later siblings return to it from this level's checkpoint. The level
  // is the trace length: every nested call pushes one choice first.
  const std::size_t level = trace_.size();
  Executor::Checkpoint* branch_point = nullptr;
  if (en.slots.size() > 1) {
    if (checkpoints_.size() <= level) checkpoints_.resize(level + 1);
    std::unique_ptr<Executor::Checkpoint>& saved = checkpoints_[level];
    if (saved == nullptr) saved = std::make_unique<Executor::Checkpoint>();
    branch_point = saved.get();
    exec_.save(*branch_point);
  }
  for (std::size_t i = 0; i < en.slots.size(); ++i) {
    if (i > 0) exec_.restore(*branch_point);
    exec_.fire(en.slots[i]);
    trace_.push_back(en.slots[i]);
    const Result r = explore_round(depth);
    if (r == Result::kCounterexample) return r;
    trace_.pop_back();
  }
  round_memo_.insert(position);
  return Result::kAllLegal;
}

std::optional<std::size_t> Explorer::random_walk(
    const Executor::Options& options, std::uint64_t walk_seed) {
  Executor exec(options);
  ssps::Rng rng(walk_seed);
  if (exec.check().ok()) return 0;
  exec.prime();
  for (;;) {
    const Enabled en = exec.enabled();
    if (en.slots.empty()) {
      exec.barrier();
      if (exec.check().ok()) return exec.rounds();
      if (exec.rounds() >= options.max_rounds) return std::nullopt;
      exec.prime();
      continue;
    }
    exec.fire(en.slots[rng.pick_index(en.slots)]);
  }
}

}  // namespace ssps::mc
