// Exhaustive small-n interleaving explorer.
//
// From one scrambled root state, the explorer enumerates every delivery
// interleaving the round model admits (the Executor's branch point, with
// its two sound reductions) and certifies that EVERY schedule reaches a
// legal state within the round bound — a qualitatively stronger statement
// than any seed sweep, which samples one schedule per seed.
//
// Search shape: depth-first over choice traces, with the executor saved
// at every branch point that offers two or more choices and restored from
// that checkpoint before each later sibling — backtracking costs a copy of
// one position, not a re-run of its schedule. The explorer keeps one
// checkpoint per recursion level and saves into it again at every branch
// point of that level, so a save reuses the storage of the last one
// instead of allocating a new position. Boundary states (between rounds)
// are hash-deduped:
//   - a state already proven (black) is skipped — sound because the
//     search aborts on the first counterexample, so a black state's
//     entire subtree is known to reach legality regardless of the depth
//     it was first expanded at (the round bound is a search bound, not
//     part of the property);
//   - re-reaching a state on the current DFS stack (grey) is a genuine
//     livelock: a cycle of rounds that never passes through a legal
//     state is an infinite fair execution violating convergence.
// Mid-round positions are memoized the same way (the round memo): two
// delivery orders whose executed prefixes commute land on the same
// canonical position, so the factorial tree of per-target permutations
// collapses toward the subset lattice — without this the checker drowns
// at n = 3 where boundary dedup alone leaves k! within-round orderings.
// Failing schedules are reported as replayable choice traces
// (counterexample.hpp serializes them).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mc/executor.hpp"

namespace ssps::mc {

struct Stats {
  /// Unique non-legal boundary states expanded.
  std::size_t visited = 0;
  /// Boundary revisits answered by the visited set.
  std::size_t deduped = 0;
  /// Branch choices removed by the commuting-delivery reduction.
  std::size_t por_pruned = 0;
  /// Mid-round positions answered by the round memo: delivery orders that
  /// converged onto an already-proven (state, remaining-messages) pair.
  std::size_t memo_hits = 0;
  /// Legal boundary states reached (schedule endpoints).
  std::size_t goal_states = 0;
  /// Deepest boundary reached, in rounds from the root.
  std::size_t max_depth = 0;
};

struct Counterexample {
  enum class Kind {
    kDepthBound,  ///< a schedule ran max_rounds rounds without legality
    kLivelock,    ///< a schedule revisited a state on its own path
  };
  Kind kind = Kind::kDepthBound;
  /// Replayable schedule: Executor::replay(trace) re-establishes the
  /// violating end state (modulo one trailing prime, which no oracle
  /// predicate observes).
  Trace trace;
  /// Oracle summary at the end state.
  std::string violation;
  /// Rounds executed by the failing schedule.
  std::size_t rounds = 0;
};

struct Certificate {
  /// True when every schedule from the root reaches a legal state within
  /// the bound.
  bool certified = false;
  Stats stats;
  std::optional<Counterexample> counterexample;
};

class Explorer {
 public:
  explicit Explorer(const Executor::Options& options);

  /// Runs the exhaustive search (aborts on the first counterexample).
  Certificate run();

  /// One uniformly random schedule from the same root: the sampling
  /// baseline the differential test pins the exhaustive result against.
  /// Returns rounds-to-legal, or nullopt when the bound was hit.
  static std::optional<std::size_t> random_walk(
      const Executor::Options& options, std::uint64_t walk_seed);

 private:
  enum class Result { kAllLegal, kCounterexample };

  /// Expands the boundary state the executor currently sits at.
  Result explore_boundary(std::size_t depth);
  /// Enumerates the primed round's remaining interleavings.
  Result explore_round(std::size_t depth);
  void record_counterexample(Counterexample::Kind kind, std::size_t depth);

  Executor exec_;
  /// One branch-point checkpoint per recursion level (trace length),
  /// made on first use and reused by every branch point at that level.
  /// Declared after exec_, so the checkpoints return their message clones
  /// before the executor's pool is destroyed.
  std::vector<std::unique_ptr<Executor::Checkpoint>> checkpoints_;
  std::size_t max_rounds_;
  Trace trace_;
  std::unordered_set<StateHash, StateHashOf> visited_;
  std::unordered_set<StateHash, StateHashOf> grey_;
  /// Proven-all-legal mid-round positions (hashes carry a flag byte, so
  /// they can never collide with boundary hashes in visited_/grey_).
  std::unordered_set<StateHash, StateHashOf> round_memo_;
  Certificate out_;
};

}  // namespace ssps::mc
