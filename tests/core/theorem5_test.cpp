// Theorem 5: in a legitimate state, the expected number of configuration
// requests arriving at the supervisor per timeout interval is O(1),
// independent of n.
//
// Note on the constant: the theorem's proof sums Σ_k 2^{k−1}/(2^k k²) < 1
// using f(k) = 2^{k−1} for all k, but the label function produces TWO
// labels of length 1 ("0" and "1", f(1) = 2 — the paper's own Lemma 3
// says so), and the believed-minimum node fires action (iv) at the same
// 1/2 rate. The exact steady-state expectation is therefore
//   Σ_k f(k)/(2^k k²) = 2·(1/2) + Σ_{k≥2} 1/(2k²) ≈ 1.32,
// still a constant independent of n — the substance of the theorem — but
// above the stated bound of 1.
#include <gtest/gtest.h>

#include <cmath>

#include "core/system.hpp"

namespace ssps::core {
namespace {

double measured_requests_per_round(std::size_t n, std::uint64_t seed,
                                   std::size_t rounds) {
  SkipRingSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0});
  sys.add_subscribers(n);
  EXPECT_TRUE(sys.run_until_legit(4000).has_value());
  sys.net().run_units(5);
  sys.net().metrics().reset();
  sys.net().run_units(rounds);
  const auto requests =
      sys.net().metrics().sent("GetConfiguration") + sys.net().metrics().sent("Subscribe");
  return static_cast<double>(requests) / static_cast<double>(rounds);
}

double predicted_requests(std::size_t n) {
  // Σ over the real label population: f(1) = 2, f(k) = 2^{k−1} for k ≥ 2,
  // truncated at the population actually present.
  double expected = 0.0;
  for (std::size_t x = 0; x < n; ++x) {
    const int k = Label::from_index(x).length();
    expected += 1.0 / (std::pow(2.0, k) * k * k);
  }
  return expected;
}

class Theorem5 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Theorem5, SteadyStateRequestRateMatchesPrediction) {
  const std::size_t n = GetParam();
  const double measured = measured_requests_per_round(n, 1000 + n, 600);
  const double predicted = predicted_requests(n);
  // Generous statistical tolerance: 600 rounds of Bernoulli sums.
  EXPECT_NEAR(measured, predicted, 0.35) << "n=" << n;
  // The substance of Theorem 5: a constant, independent of n.
  EXPECT_LT(measured, 2.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem5, ::testing::Values(4, 16, 64, 256));

TEST(Theorem5, RateDoesNotGrowWithN) {
  const double small = measured_requests_per_round(8, 77, 400);
  const double large = measured_requests_per_round(256, 78, 400);
  EXPECT_LT(large, small + 0.8);
}

TEST(Theorem5, PredictionConvergesBelowOnePointFive) {
  // The corrected series: 1 + Σ_{k≥2} 1/(2k²) = 1 + (π²/12 − 1/2) ≈ 1.32.
  // n = 2^20 truncates at k = 21, leaving a tail of Σ_{k>21} 1/(2k²) ≈ 0.024.
  const double limit = 1.0 + (M_PI * M_PI / 12.0 - 0.5);
  EXPECT_NEAR(predicted_requests(1 << 20), limit, 0.05);
  EXPECT_LT(predicted_requests(1 << 20), 1.5);
}

TEST(Theorem5, SupervisorSendsExactlyOneConfigPerRoundSteadyState) {
  // The supervisor's own maintenance: one round-robin SetData per Timeout
  // plus one reply per incoming request — nothing else.
  SkipRingSystem sys(SkipRingSystem::Options{.seed = 5, .fd_delay = 0});
  sys.add_subscribers(32);
  ASSERT_TRUE(sys.run_until_legit(1500).has_value());
  sys.net().run_units(5);
  sys.net().metrics().reset();
  const std::size_t rounds = 200;
  sys.net().run_units(rounds);
  const auto requests = sys.net().metrics().sent("GetConfiguration");
  const auto configs = sys.net().metrics().sent("SetData");
  EXPECT_LE(configs, rounds + requests + 2);
  EXPECT_GE(configs, rounds - 2);
}

}  // namespace
}  // namespace ssps::core
