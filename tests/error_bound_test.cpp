// Statistical gate for the paper's error bound (Eq. 1): a probabilistic
// YES of the group policy errs with probability at most delta. Counts the
// engine's false YES verdicts against the exact oracle on seeded
// non-covered instances and fails when the one-sided 99 % Clopper-Pearson
// lower bound of the false-YES rate exceeds delta. The same instances
// through the exact residue stage must give no wrong and no probabilistic
// verdict at all.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "baseline/exact_subsumption.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

namespace psc::core {
namespace {

/// P(X >= successes) for X ~ Binomial(trials, p), summed in log space.
double binomial_upper_tail(std::uint64_t trials, std::uint64_t successes,
                           double p) {
  if (successes == 0) return 1.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  const double n = static_cast<double>(trials);
  double tail = 0.0;
  for (std::uint64_t i = successes; i <= trials; ++i) {
    const double x = static_cast<double>(i);
    tail += std::exp(std::lgamma(n + 1) - std::lgamma(x + 1) -
                     std::lgamma(n - x + 1) + x * std::log(p) +
                     (n - x) * std::log1p(-p));
  }
  return tail;
}

/// One-sided Clopper-Pearson lower confidence bound on a binomial rate:
/// the p at which seeing `successes` or more in `trials` has probability
/// alpha. 0 when nothing was seen.
double clopper_pearson_lower(std::uint64_t trials, std::uint64_t successes,
                             double alpha) {
  if (successes == 0) return 0.0;
  double lo = 0.0;
  double hi = static_cast<double>(successes) / static_cast<double>(trials);
  for (int step = 0; step < 200; ++step) {
    const double mid = 0.5 * (lo + hi);
    (binomial_upper_tail(trials, successes, mid) < alpha ? lo : hi) = mid;
  }
  return lo;
}

TEST(ClopperPearson, MatchesKnownBounds) {
  // Closed form for x = n: the lower bound is alpha^(1/n).
  EXPECT_NEAR(clopper_pearson_lower(10, 10, 0.01), std::pow(0.01, 0.1), 1e-9);
  // x = 1: 1 - (1 - alpha)^(1/n).
  EXPECT_NEAR(clopper_pearson_lower(100, 1, 0.01),
              1.0 - std::pow(0.99, 0.01), 1e-9);
  EXPECT_EQ(clopper_pearson_lower(1000, 0, 0.01), 0.0);
  // The bound sits below the point estimate and rises with the count.
  EXPECT_LT(clopper_pearson_lower(3000, 30, 0.01), 0.01);
  EXPECT_GT(clopper_pearson_lower(3000, 60, 0.01), 0.01);
}

constexpr double kDelta = 1e-2;   // test-sized error bound
constexpr double kAlpha = 0.01;   // one-sided 99 % confidence
constexpr int kInstancesPerGap = 600;

/// Extreme non-cover instances (a thin uncovered slice of s, Fig. 11/12's
/// scenario) over a sweep of gap sizes, continuous measure: every one of
/// them can draw d points that all miss the slice.
std::vector<workload::Instance> gapped_instances() {
  workload::ScenarioConfig config;
  config.attribute_count = 5;
  config.set_size = 20;
  util::Rng rng(0xb0a2d);
  std::vector<workload::Instance> out;
  for (const double gap : {0.001, 0.002, 0.005, 0.01, 0.02}) {
    for (int i = 0; i < kInstancesPerGap; ++i) {
      out.push_back(workload::make_extreme_non_cover(config, gap, rng));
    }
  }
  return out;
}

EngineConfig gate_config(bool exact_residue) {
  EngineConfig config;
  config.delta = kDelta;
  // Every query reaches stage 5: the fast paths and MCS would otherwise
  // answer many of these instances before any sampling.
  config.use_fast_decisions = false;
  config.use_mcs = false;
  config.exact_residue = exact_residue;
  return config;
}

TEST(ErrorBound, RspcFalseYesRateWithinDelta) {
  const auto instances = gapped_instances();
  SubsumptionEngine engine(gate_config(false), 0x6a7e);
  std::uint64_t uncovered = 0;
  std::uint64_t false_yes = 0;
  for (const auto& inst : instances) {
    if (baseline::exactly_covered(inst.tested, inst.existing)) continue;
    ++uncovered;
    const auto result = engine.check(inst.tested, inst.existing);
    if (result.covered) {
      ASSERT_FALSE(result.is_definite) << "a definite YES on an open gap";
      ++false_yes;
    }
  }
  ASSERT_EQ(uncovered, instances.size()) << "generator drift";
  const double lower = clopper_pearson_lower(uncovered, false_yes, kAlpha);
  EXPECT_LE(lower, kDelta) << false_yes << " false YES in " << uncovered
                           << " checks; 99 % lower bound " << lower;
}

TEST(ErrorBound, ExactResidueDecidesEveryGapExactly) {
  const auto instances = gapped_instances();
  SubsumptionEngine engine(gate_config(true), 0x6a7e);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& inst = instances[i];
    const auto exact = baseline::exact_subsumption(inst.tested, inst.existing);
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_EQ(result.covered, exact.covered) << "instance " << i;
    ASSERT_TRUE(result.is_definite) << "instance " << i;
    ASSERT_EQ(result.iterations, 0u) << "instance " << i;
    ASSERT_TRUE(result.witness.has_value()) << "instance " << i;
    EXPECT_TRUE(inst.tested.contains_point(*result.witness)) << "instance " << i;
    EXPECT_FALSE(point_in_union(*result.witness, inst.existing))
        << "instance " << i;
  }
}

TEST(ErrorBound, ExactResidueCoveredVerdictsAreDefinite) {
  // Covered instances (the union covers s, no single candidate does) at
  // the same delta: each YES comes from the residue stage, so none of
  // them carries the probabilistic error.
  workload::ScenarioConfig config;
  config.attribute_count = 5;
  config.set_size = 20;
  util::Rng rng(0xc0fe2);
  SubsumptionEngine engine(gate_config(true), 0x6a7e);
  for (int i = 0; i < 1000; ++i) {
    const auto inst = workload::make_redundant_covering(config, rng);
    ASSERT_TRUE(baseline::exactly_covered(inst.tested, inst.existing));
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_TRUE(result.covered) << "instance " << i;
    ASSERT_TRUE(result.is_definite) << "instance " << i;
    ASSERT_EQ(result.iterations, 0u) << "instance " << i;
  }
}

}  // namespace
}  // namespace psc::core
