// The named scenario library behind `ssps_run --scenario <name>`.
//
//   steady          one ring: bootstrap, steady maintenance, publish burst
//   churn-wave      supervisor group + topics under waves of client churn,
//                   one supervisor crash and one supervisor join (arc
//                   rebalancing), and a failure-detector retune
//   flash-crowd     everyone piles into one hot topic, then a publish burst
//   zipf-topics     Zipf-skewed publication workload over many topics
//   partition-drill split-brain + adversarial corruption recovery drill
//   scale-steady    the steady shape at large n (default n = 1024)
//   scale-churn     churn waves + worst-case crash on one large ring
//   scale-flash     flash crowd onto one hot topic among 1024+ clients
#pragma once

#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace ssps::scenario {

/// Names of all built-in scenarios, in presentation order.
std::vector<std::string> builtin_names();

/// True if `name` names a built-in scenario.
bool is_builtin(const std::string& name);

/// Builds the named scenario for `nodes` clients under `seed`; nodes == 0
/// selects the scenario's default population (32 for the classic
/// builtins, 1024 for the scale family). Aborts on an unknown name (check
/// is_builtin first when handling user input).
ScenarioSpec builtin_scenario(const std::string& name, std::uint64_t seed,
                              std::size_t nodes);

/// The scrambled-start variant of any scenario: right after the first
/// phase (the bootstrap in every builtin) an InjectArbitraryState phase
/// rebuilds all protocol state arbitrarily (seeded from spec.seed) and
/// waits for re-convergence; the invariant oracle runs every phase. This
/// is the paper's stabilization experiment shape — convergence from
/// adversarially scrambled states certified against the explicit
/// legal-state predicate.
ScenarioSpec scrambled_variant(ScenarioSpec spec);

}  // namespace ssps::scenario
