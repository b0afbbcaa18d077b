// Tests for the RSPC Monte-Carlo core (Algorithm 1).
#include "core/rspc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace psc::core {
namespace {

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

TEST(SamplePoint, PointsLieInsideSubscription) {
  util::Rng rng(1);
  const Subscription s = box2(830, 870, 1003, 1006);
  for (int i = 0; i < 1000; ++i) {
    const auto point = sample_point(s, rng);
    ASSERT_EQ(point.size(), 2u);
    EXPECT_TRUE(s.contains_point(point));
  }
}

TEST(SamplePoint, DegenerateRangeYieldsThePoint) {
  util::Rng rng(2);
  const Subscription s({Interval::point(3.0), Interval{0, 1}});
  const auto point = sample_point(s, rng);
  EXPECT_EQ(point[0], 3.0);
}

TEST(SamplePoint, UnboundedRangeThrows) {
  util::Rng rng(3);
  const Subscription s = Subscription::everything(2);
  EXPECT_THROW((void)sample_point(s, rng), std::invalid_argument);
}

TEST(PointInUnion, RespectsMembership) {
  const std::vector<Subscription> set{box2(0, 10, 0, 10, 1),
                                      box2(20, 30, 0, 10, 2)};
  EXPECT_TRUE(point_in_union(std::vector<Value>{5, 5}, set));
  EXPECT_TRUE(point_in_union(std::vector<Value>{25, 5}, set));
  EXPECT_FALSE(point_in_union(std::vector<Value>{15, 5}, set));
}

TEST(PointInUnion, EmptySetContainsNothing) {
  const std::vector<Subscription> set;
  EXPECT_FALSE(point_in_union(std::vector<Value>{0, 0}, set));
}

TEST(Rspc, CoveredInstanceAlwaysAnswersYes) {
  // Paper Table 3: genuinely covered, so no witness exists — RSPC must
  // exhaust its budget and answer YES regardless of seed.
  const Subscription s = box2(830, 870, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const RspcResult result = run_rspc(s, set, 200, rng);
    EXPECT_TRUE(result.covered) << "seed " << seed;
    EXPECT_EQ(result.iterations, 200u);
    EXPECT_FALSE(result.witness.has_value());
  }
}

TEST(Rspc, NonCoverFindsWitnessWithLargeGap) {
  // Table 6: the gap (870, 890] is 1/3 of s on x1; 200 trials miss it with
  // probability (2/3)^200 ~ 1e-36 — effectively never.
  const Subscription s = box2(830, 890, 1003, 1006);
  const std::vector<Subscription> set{box2(820, 850, 1002, 1009, 1),
                                      box2(840, 870, 1001, 1007, 2)};
  util::Rng rng(7);
  const RspcResult result = run_rspc(s, set, 200, rng);
  ASSERT_FALSE(result.covered);
  ASSERT_TRUE(result.witness.has_value());
  // The witness is a genuine counter-example.
  EXPECT_TRUE(s.contains_point(*result.witness));
  EXPECT_FALSE(point_in_union(*result.witness, set));
  EXPECT_LT(result.iterations, 200u);  // early exit
}

TEST(Rspc, DefiniteNoIsAlwaysSound) {
  // Whenever RSPC says NO, the reported witness must check out. Randomized
  // instances with a forced gap.
  util::Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const Subscription s = box2(0, 100, 0, 100);
    const std::vector<Subscription> set{
        box2(-1, rng.uniform(20, 60), -1, 101, 1),
        box2(rng.uniform(61, 90), 101, -1, 101, 2)};
    util::Rng inner = rng.split();
    const RspcResult result = run_rspc(s, set, 500, inner);
    if (!result.covered) {
      ASSERT_TRUE(result.witness.has_value());
      EXPECT_TRUE(s.contains_point(*result.witness));
      EXPECT_FALSE(point_in_union(*result.witness, set));
    }
  }
}

TEST(Rspc, EmptySetIsDefiniteNoWithoutSampling) {
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set;
  util::Rng rng(5);
  const RspcResult result = run_rspc(s, set, 100, rng);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.iterations, 0u);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
}

TEST(Rspc, ZeroBudgetAnswersYes) {
  // With no trials allowed the algorithm must fall back to YES (its only
  // error mode) — never a spurious NO.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(100, 110, 100, 110, 1)};
  util::Rng rng(6);
  const RspcResult result = run_rspc(s, set, 0, rng);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Rspc, IterationCountGeometricallySmallForWideGap) {
  // Gap = half of s: expected trials to find a witness ~ 2. Average over
  // 200 runs must be well under 10.
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 50, -1, 101, 1)};
  util::Rng rng(11);
  double total = 0;
  for (int i = 0; i < 200; ++i) {
    util::Rng inner = rng.split();
    const RspcResult result = run_rspc(s, set, 10'000, inner);
    ASSERT_FALSE(result.covered);
    total += static_cast<double>(result.iterations);
  }
  EXPECT_LT(total / 200.0, 10.0);
  EXPECT_GE(total / 200.0, 1.0);
}

TEST(Rspc, DeterministicGivenSeed) {
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 80, -1, 101, 1)};
  util::Rng rng_a(42), rng_b(42);
  const RspcResult a = run_rspc(s, set, 1000, rng_a);
  const RspcResult b = run_rspc(s, set, 1000, rng_b);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness) {
    EXPECT_EQ(*a.witness, *b.witness);
  }
}

// The trial loop as it was before the flat candidate layout: one
// `sample_point` + `point_in_union` per trial. Kept as the reference that
// run_rspc must match decision for decision and draw for draw.
RspcResult reference_rspc(const Subscription& s,
                          std::span<const Subscription> set,
                          std::uint64_t budget, util::Rng& rng) {
  RspcResult result;
  if (set.empty()) {
    result.covered = false;
    result.witness = sample_point(s, rng);
    return result;
  }
  for (std::uint64_t trial = 0; trial < budget; ++trial) {
    ++result.iterations;
    std::vector<Value> point = sample_point(s, rng);
    if (!point_in_union(point, set)) {
      result.covered = false;
      result.witness = std::move(point);
      return result;
    }
  }
  return result;
}

TEST(Rspc, DecisionIdenticalToReferenceLoop) {
  // Random instances across the shapes the layout has to get right:
  // m = 1..8, k = 0..70 (so every partial block), zero budgets, +-inf
  // and NaN candidate sides, degenerate ranges, and grid-valued boxes where a
  // degenerate side of s puts sample coordinates exactly on candidate
  // endpoints. Candidates span s on each attribute with an
  // instance-specific probability, so covered and uncovered verdicts and
  // both short and budget-long loops all occur.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  util::Rng gen(20261017);
  std::uint64_t covered = 0, uncovered = 0, long_loops = 0;
  for (int round = 0; round < 12'000; ++round) {
    const std::size_t m = 1 + gen.next_below(8);
    const std::size_t k = gen.next_below(71);
    const bool grid = gen.bernoulli(0.3);
    constexpr double kSpanP[] = {0.2, 0.5, 0.85, 0.97};
    const double span_p = kSpanP[gen.next_below(4)];
    const auto value = [&](double lo, double hi) {
      const double v = gen.uniform(lo, hi);
      return grid ? std::round(v) : v;
    };
    std::vector<Interval> s_ranges(m);
    for (Interval& r : s_ranges) {
      double a = value(0, 10), b = value(0, 10);
      if (a > b) std::swap(a, b);
      if (gen.bernoulli(0.1)) b = a;  // degenerate side of s
      r = {a, b};
    }
    const Subscription s(s_ranges);
    std::vector<Subscription> set;
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<Interval> ranges(m);
      for (std::size_t j = 0; j < m; ++j) {
        const Interval& sr = s_ranges[j];
        double lo, hi;
        if (gen.bernoulli(span_p)) {
          lo = gen.bernoulli(0.2) ? -kInf : sr.lo - value(0, 2);
          hi = gen.bernoulli(0.2) ? kInf : sr.hi + value(0, 2);
        } else {
          lo = value(-2, 12);
          hi = gen.bernoulli(0.1) ? lo : value(-2, 12);
          if (lo > hi) std::swap(lo, hi);
          if (gen.bernoulli(0.1)) lo = -kInf;
          if (gen.bernoulli(0.1)) hi = kInf;
          if (gen.bernoulli(0.01)) lo = kNaN;  // a side nothing satisfies
        }
        ranges[j] = {lo, hi};
      }
      set.emplace_back(ranges, i + 1);
    }
    const std::uint64_t budget =
        gen.bernoulli(0.05) ? 0
        : gen.bernoulli(0.02) ? 2'000 + gen.next_below(3'000)
                               : gen.next_below(300);

    const std::uint64_t seed = gen();
    util::Rng reference_rng(seed), rng(seed);
    const RspcResult expected = reference_rspc(s, set, budget, reference_rng);
    const RspcResult actual = run_rspc(s, set, budget, rng);
    ASSERT_EQ(actual.covered, expected.covered) << "round " << round;
    ASSERT_EQ(actual.iterations, expected.iterations) << "round " << round;
    ASSERT_EQ(actual.witness, expected.witness) << "round " << round;
    ASSERT_EQ(rng(), reference_rng()) << "round " << round;
    (expected.covered ? covered : uncovered) += 1;
    if (expected.covered && expected.iterations >= 100) ++long_loops;
  }
  // The generator really exercises both verdicts and long YES loops.
  EXPECT_GT(covered, 1'000u);
  EXPECT_GT(uncovered, 1'000u);
  EXPECT_GT(long_loops, 500u);
}

TEST(Rspc, ZeroBudgetNeverSamplesAnUnboundedS) {
  // Like the reference loop, a zero budget answers YES before touching s,
  // so an unbounded s does not throw there.
  const Subscription s = Subscription::everything(2);
  const std::vector<Subscription> set{box2(0, 1, 0, 1, 1)};
  util::Rng rng(4), reference_rng(4);
  const RspcResult result = run_rspc(s, set, 0, rng);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(rng(), reference_rng());
  EXPECT_THROW((void)run_rspc(s, set, 1, rng), std::invalid_argument);
}

TEST(Rspc, CandidateOfAnotherArityContainsNothing) {
  // Subscription::contains_point rejects a point of another arity, so
  // such a candidate never covers a sample, in either loop.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{
      Subscription({Interval{-1, 11}, Interval{-1, 11}, Interval{-1, 11}}, 1),
      box2(-1, 5, -1, 11, 2)};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed), reference_rng(seed);
    const RspcResult expected = reference_rspc(s, set, 50, reference_rng);
    const RspcResult actual = run_rspc(s, set, 50, rng);
    EXPECT_FALSE(actual.covered);
    EXPECT_EQ(actual.iterations, expected.iterations);
    EXPECT_EQ(actual.witness, expected.witness);
    EXPECT_EQ(rng(), reference_rng());
  }
}

TEST(Rspc, ReusedScratchAcrossShrinkingSets) {
  // The pointer overload reuses one scratch: a smaller set after a larger
  // one must not see the larger set's stale lanes.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> big{box2(-1, 11, -1, 11, 1),
                                      box2(-1, 5, -1, 11, 2),
                                      box2(5, 11, -1, 11, 3),
                                      box2(-1, 11, -1, 5, 4),
                                      box2(-1, 11, 5, 11, 5)};
  const Subscription left = box2(-1, 5, -1, 11, 6);
  std::vector<const Subscription*> pointers;
  for (const Subscription& sub : big) pointers.push_back(&sub);
  RspcScratch scratch;
  util::Rng rng(8);
  EXPECT_TRUE(run_rspc(s, pointers, 500, rng, scratch).covered);
  const std::vector<const Subscription*> half{&left};
  EXPECT_FALSE(run_rspc(s, half, 500, rng, scratch).covered);
}

TEST(Rspc, ScratchRowsKeepTheirStorageAcrossCalls) {
  // The aligned lo/hi rows come from aligned operator new, which the
  // workspace allocation counter does not see: pin their reuse directly.
  const Subscription s = box2(0, 10, 0, 10);
  const std::vector<Subscription> set{box2(-1, 6, -1, 11, 1),
                                      box2(4, 11, -1, 11, 2)};
  const std::vector<const Subscription*> pointers{&set[0], &set[1]};
  RspcScratch scratch;
  util::Rng rng(9);
  ASSERT_TRUE(run_rspc(s, pointers, 100, rng, scratch).covered);
  const double* lo = scratch.lo.data();
  const double* hi = scratch.hi.data();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(run_rspc(s, pointers, 100, rng, scratch).covered);
    EXPECT_EQ(scratch.lo.data(), lo);
    EXPECT_EQ(scratch.hi.data(), hi);
  }
}

}  // namespace
}  // namespace psc::core
