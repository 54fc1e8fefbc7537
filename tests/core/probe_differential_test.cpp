// Differential equivalence of the incremental legitimacy probe.
//
// SkipRingSystem::topology_legit() answers from a persistent conformance
// cache (subscriber state versions + database/topology epochs); the
// exhaustive legitimacy_violation_full() recomputes everything from
// scratch. This suite pins their agreement on EVERY round of executions
// that start from every adversarial state class we can produce — the
// core/chaos generators, split brain, the oracle's arbitrary-state
// injector, every individual chaos hook, plus live churn with a delayed
// failure detector. Any missed version bump or stale epoch shows up as a
// disagreement here (and this suite runs under the ASan job like the rest
// of CTest).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/chaos.hpp"
#include "core/system.hpp"
#include "oracle/scramble.hpp"
#include "pubsub/pubsub_node.hpp"

namespace ssps::core {
namespace {

constexpr std::uint64_t kSeeds = 8;  // scrambled seeds per state class
constexpr std::size_t kNodes = 20;
constexpr std::size_t kMaxRounds = 600;

/// One probe/full comparison; the assertion message names the phase.
void expect_agreement(const SkipRingSystem& sys, const char* where,
                      std::size_t round) {
  const bool probe = sys.topology_legit();
  const std::string full = sys.legitimacy_violation_full();
  ASSERT_EQ(probe, full.empty())
      << where << " round " << round << ": incremental probe says "
      << (probe ? "legit" : "illegitimate") << ", reference says "
      << (full.empty() ? "legit" : full);
}

/// Runs until the probe reports legitimacy (plus a short closure window),
/// comparing probe and reference before every round.
void run_checked(SkipRingSystem& sys, const char* where) {
  std::size_t closure = 0;
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    expect_agreement(sys, where, round);
    if (sys.topology_legit() && ++closure >= 5) return;
    sys.net().run_unit();
  }
  FAIL() << where << ": did not reach legitimacy within " << kMaxRounds
         << " rounds";
}

TEST(ProbeDifferential, ColdStartAndChaosClasses) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    pubsub::PubSubSystem sys(
        SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
    sys.add_pubsub_subscribers(kNodes);
    run_checked(sys, "cold start");

    ChaosOptions chaos;
    chaos.seed = seed * 3 + 1;
    corrupt_system(sys, chaos);
    run_checked(sys, "chaos");

    ChaosOptions wipe;
    wipe.seed = seed * 5 + 2;
    wipe.wipe_database = true;
    corrupt_system(sys, wipe);
    run_checked(sys, "database wipe");

    split_brain(sys, seed * 7 + 3);
    run_checked(sys, "split brain");
  }
}

TEST(ProbeDifferential, ArbitraryStateInjection) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    pubsub::PubSubSystem sys(
        SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
    sys.add_pubsub_subscribers(kNodes);
    run_checked(sys, "pre-scramble bootstrap");

    oracle::ScrambleOptions options;
    options.seed = seed * 11 + 5;
    oracle::ArbitraryStateInjector injector(options);
    injector.scramble(sys);
    run_checked(sys, "scrambled start");
  }
}

TEST(ProbeDifferential, AgreesUnderTheParallelScheduler) {
  // Same drill as the cold-start/chaos classes, but with rounds executed
  // by the ParallelScheduler: worker-side protocol writes (and the plain
  // version counters the probe keys on) must be fully published at the
  // round barrier where the probe runs.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    pubsub::PubSubSystem sys(
        SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
    sys.net().set_threads(seed % 2 == 0 ? 2 : 4);
    sys.add_pubsub_subscribers(kNodes);
    run_checked(sys, "parallel cold start");

    ChaosOptions chaos;
    chaos.seed = seed * 13 + 7;
    corrupt_system(sys, chaos);
    run_checked(sys, "parallel chaos");

    oracle::ScrambleOptions options;
    options.seed = seed * 17 + 3;
    oracle::ArbitraryStateInjector injector(options);
    injector.scramble(sys);
    run_checked(sys, "parallel scrambled start");
  }
}

TEST(ProbeDifferential, ChurnWithDelayedFailureDetector) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    pubsub::PubSubSystem sys(
        SkipRingSystem::Options{.seed = seed, .fd_delay = 3});
    sys.add_pubsub_subscribers(kNodes);
    run_checked(sys, "bootstrap under delayed fd");

    // Crash, graceful leave, joins — the probe must track the epoch moves
    // (spawn/crash) and the departure phases, including the window where
    // the database still references the crashed node.
    const auto active = sys.active_ids();
    sys.crash(active[seed % active.size()]);
    sys.request_unsubscribe(active[(seed + 2) % active.size()]);
    sys.add_pubsub_subscribers(2);
    run_checked(sys, "churn recovery");
  }
}

TEST(ProbeDifferential, EveryChaosHookInvalidatesTheProbe) {
  // Each hook mutates one protocol variable on a converged system; the
  // probe must agree with the reference immediately afterwards (this is
  // the direct pin on "every mutation path bumps a version").
  using Hook = void (*)(SkipRingSystem&);
  struct Case {
    const char* name;
    Hook apply;
  };
  const Case cases[] = {
      {"chaos_set_label", [](SkipRingSystem& s) {
         s.subscriber(s.active_ids().front()).chaos_set_label(std::nullopt);
       }},
      {"chaos_set_left", [](SkipRingSystem& s) {
         const auto ids = s.active_ids();
         s.subscriber(ids[0]).chaos_set_left(
             LabeledRef{Label::from_index(7), ids[1]});
       }},
      {"chaos_set_right", [](SkipRingSystem& s) {
         const auto ids = s.active_ids();
         s.subscriber(ids[1]).chaos_set_right(
             LabeledRef{Label::from_index(0), ids[0]});
       }},
      {"chaos_set_ring", [](SkipRingSystem& s) {
         const auto ids = s.active_ids();
         s.subscriber(ids[2]).chaos_set_ring(
             LabeledRef{Label::from_index(3), ids[3]});
       }},
      {"chaos_put_shortcut", [](SkipRingSystem& s) {
         const auto ids = s.active_ids();
         s.subscriber(ids[0]).chaos_put_shortcut(Label(0b101, 3), ids[2]);
       }},
      {"chaos_clear_shortcuts", [](SkipRingSystem& s) {
         s.subscriber(s.active_ids().back()).chaos_clear_shortcuts();
       }},
      {"chaos_set_phase", [](SkipRingSystem& s) {
         s.subscriber(s.active_ids().front())
             .chaos_set_phase(SubscriberPhase::kLeaving);
       }},
      {"supervisor chaos_insert", [](SkipRingSystem& s) {
         s.supervisor().chaos_insert(Label::from_index(99),
                                     s.active_ids().front());
       }},
      {"supervisor chaos_insert_null", [](SkipRingSystem& s) {
         s.supervisor().chaos_insert_null(Label::from_index(50));
       }},
      {"supervisor chaos_clear", [](SkipRingSystem& s) {
         s.supervisor().chaos_clear();
       }},
  };
  for (const Case& c : cases) {
    SkipRingSystem sys(SkipRingSystem::Options{.seed = 77, .fd_delay = 0});
    sys.add_subscribers(8);
    ASSERT_TRUE(sys.run_until_legit(500).has_value()) << c.name;
    expect_agreement(sys, c.name, 0);
    ASSERT_TRUE(sys.topology_legit()) << c.name;
    c.apply(sys);
    expect_agreement(sys, c.name, 1);
    EXPECT_FALSE(sys.topology_legit())
        << c.name << ": hook did not perturb the legal state";
    run_checked(sys, c.name);
  }
}

}  // namespace
}  // namespace ssps::core
