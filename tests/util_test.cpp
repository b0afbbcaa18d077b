// Tests for the util substrate: RNG, distributions, statistics and flags.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "util/distributions.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace psc::util {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
  EXPECT_EQ(rng.uniform(2.0, 2.0), 2.0);
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(9);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(0.0, 10.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, NextBelowUnbiasedSmoke) {
  Rng rng(10);
  std::map<std::uint64_t, int> histogram;
  const int n = 60'000;
  for (int i = 0; i < n; ++i) ++histogram[rng.next_below(6)];
  ASSERT_EQ(histogram.size(), 6u);
  for (const auto& [value, count] : histogram) {
    EXPECT_LT(value, 6u);
    EXPECT_NEAR(count, n / 6, n / 60);  // within 10 % of uniform
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate) {
  Rng rng(12);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng rng(13);
  Rng a = rng.split();
  Rng b = rng.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Zipf, RankZeroMostPopular) {
  ZipfSampler zipf(100, 2.0);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(10));
  double total = 0;
  for (std::size_t r = 0; r < 100; ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SampleFrequenciesFollowPmf) {
  Rng rng(14);
  ZipfSampler zipf(10, 2.0);
  std::vector<int> histogram(10, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++histogram[zipf.sample(rng)];
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(histogram[r]) / n, zipf.pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(Zipf, SkewZeroIsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_NEAR(zipf.pmf(r), 0.25, 1e-9);
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -1.0), std::invalid_argument);
}

TEST(Pareto, SamplesAboveScale) {
  Rng rng(15);
  ParetoSampler pareto(2.0, 1.5);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(pareto.sample(rng), 2.0);
}

TEST(Pareto, TailHeavierForSmallerShape) {
  Rng rng(16);
  ParetoSampler heavy(1.0, 0.8), light(1.0, 3.0);
  int heavy_tail = 0, light_tail = 0;
  for (int i = 0; i < 50'000; ++i) {
    if (heavy.sample(rng) > 10.0) ++heavy_tail;
    if (light.sample(rng) > 10.0) ++light_tail;
  }
  EXPECT_GT(heavy_tail, light_tail * 5);
}

TEST(Pareto, InvalidArgsThrow) {
  EXPECT_THROW(ParetoSampler(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ParetoSampler(1.0, 0.0), std::invalid_argument);
}

TEST(Normal, MomentsApproximatelyCorrect) {
  Rng rng(17);
  NormalSampler normal(10.0, 2.0);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(normal.sample(rng));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Normal, ClampedStaysInBounds) {
  Rng rng(18);
  NormalSampler normal(0.0, 100.0);
  for (int i = 0; i < 10'000; ++i) {
    const double x = normal.sample_clamped(rng, -1.0, 1.0);
    EXPECT_GE(x, -1.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(SampleSet, PercentilesInterpolate) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  EXPECT_NEAR(set.median(), 50.5, 1e-9);
  EXPECT_NEAR(set.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(set.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(set.percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, EmptyPercentileThrows) {
  SampleSet set;
  EXPECT_THROW((void)set.percentile(50), std::logic_error);
}

TEST(SampleSet, P99OfHundredSamplesInterpolatesNotCollapses) {
  // The perf-gate contract: rank = pct/100 * (n-1). With 1..100 the p99
  // rank is 98.01, between the 99th and 100th sorted samples — NOT the
  // max, and never past the end.
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  EXPECT_NEAR(set.percentile(99), 99.01, 1e-9);
  EXPECT_NEAR(set.percentile(50), 50.5, 1e-9);
}

TEST(SampleSet, AddAfterPercentileQueryResorts) {
  // Regression: percentile() sorts the buffer lazily; an add() afterwards
  // must invalidate that order or later queries read a partially sorted
  // vector. Insert descending so a missing re-sort is guaranteed visible.
  SampleSet set;
  for (int i = 100; i >= 2; --i) set.add(i);
  EXPECT_NEAR(set.percentile(99), 99.02, 1e-9);  // sorts 2..100
  set.add(1.0);  // would land after 100 in the stale sorted buffer
  EXPECT_NEAR(set.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(set.percentile(99), 99.01, 1e-9);
  EXPECT_NEAR(set.median(), 50.5, 1e-9);
}

TEST(SampleSet, SingleSampleIsEveryPercentile) {
  SampleSet set;
  set.add(42.0);
  EXPECT_EQ(set.percentile(0), 42.0);
  EXPECT_EQ(set.percentile(50), 42.0);
  EXPECT_EQ(set.percentile(99), 42.0);
  EXPECT_EQ(set.percentile(100), 42.0);
}

TEST(Flags, ParsesAllForms) {
  // Note: a boolean switch immediately followed by a positional argument is
  // inherently ambiguous in the "--name value" form, so the switch goes last.
  const char* argv[] = {"prog", "--runs=100", "--delta", "1e-6", "positional",
                        "--verbose"};
  const Flags flags(6, argv);
  EXPECT_EQ(flags.get_int("runs", 0), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("delta", 0.0), 1e-6);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.get_bool("quiet", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.get_string("missing", "fallback"), "fallback");
}

TEST(Flags, BadBooleanThrows) {
  const char* argv[] = {"prog", "--flag=banana"};
  const Flags flags(2, argv);
  EXPECT_THROW((void)flags.get_bool("flag", false), std::invalid_argument);
}

}  // namespace
}  // namespace psc::util
