// Property suite pinning the SIMD contract of util/simd.hpp and the
// vectorized IntervalIndex query paths:
//
//   1. every word/double kernel agrees with a naive scalar reference on
//      random inputs, including tail-word / partial-block shapes, all-zero
//      and all-one rows, and every NaN/inf compare case;
//   2. the vectorized index paths (IndexConfig::use_simd = true) are
//      decision-for-decision identical to the scalar ablation path and to
//      a flat scan, under churn, on delta-tier-only indexes, and for
//      out-of-domain, boundary, and NaN probes.
//
// The suite runs under ASan/UBSan in CI (all tier-1 tests do), so the
// aligned loads and prefetch distances are sanitizer-checked as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "index/interval_index.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace psc {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using core::Value;
using simd::Word;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

simd::AlignedVector<Word> random_words(std::size_t n, util::Rng& rng,
                                       int shape) {
  simd::AlignedVector<Word> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0: out[i] = 0; break;                      // all-zero row
      case 1: out[i] = ~Word{0}; break;               // all-one row
      case 2:                                         // sparse tail word
        out[i] = i + 1 == n ? Word{1} << rng.next_below(64) : 0;
        break;
      default: out[i] = rng() & rng(); break;
    }
  }
  return out;
}

TEST(SimdKernels, WordKernelsMatchScalarReference) {
  util::Rng rng(20260807);
  // Partial-block shapes relative to larger buffers: the kernels only see
  // the first `words` entries, which must be a whole number of blocks.
  for (const std::size_t words : {std::size_t{4}, std::size_t{8},
                                  std::size_t{12}, std::size_t{64}}) {
    for (int shape = 0; shape < 4; ++shape) {
      for (int round = 0; round < 25; ++round) {
        const auto row = random_words(words, rng, shape);
        const auto base = random_words(words, rng, 3);

        auto acc = base;
        std::vector<Word> ref(base.begin(), base.end());
        Word any = 0;
        for (std::size_t w = 0; w < words; ++w) {
          ref[w] &= row[w];
          any |= ref[w];
        }
        EXPECT_EQ(simd::and_into(acc.data(), row.data(), words), any != 0);
        EXPECT_TRUE(std::equal(ref.begin(), ref.end(), acc.begin()));

        acc = base;
        Word any_even = 0;
        for (std::size_t w = 0; w < words; ++w) {
          ref[w] = w % 2 == 0 ? base[w] & row[w] : 0;
          if (w % 2 == 0) any_even |= ref[w];
        }
        EXPECT_EQ(simd::and_into_even(acc.data(), row.data(), words),
                  any_even != 0);
        EXPECT_TRUE(std::equal(ref.begin(), ref.end(), acc.begin()));

        acc = base;
        simd::zero_odd_words(acc.data(), words);
        for (std::size_t w = 0; w < words; ++w) {
          EXPECT_EQ(acc[w], w % 2 == 0 ? base[w] : Word{0});
        }

        acc = base;
        simd::or_into(acc.data(), row.data(), words);
        for (std::size_t w = 0; w < words; ++w) {
          EXPECT_EQ(acc[w], base[w] | row[w]);
        }

        acc = base;
        simd::andnot_into(acc.data(), row.data(), words);
        for (std::size_t w = 0; w < words; ++w) {
          EXPECT_EQ(acc[w], base[w] & ~row[w]);
        }

        Word row_any = 0;
        std::uint64_t bits = 0;
        for (std::size_t w = 0; w < words; ++w) {
          row_any |= row[w];
          bits += static_cast<std::uint64_t>(std::popcount(row[w]));
        }
        EXPECT_EQ(simd::testz(row.data(), words), row_any == 0);
        EXPECT_EQ(simd::popcount(row.data(), words), bits);
      }
    }
  }
}

TEST(SimdKernels, DoubleKernelsMatchScalarSemantics) {
  // contains4 / intersects4 must agree with the scalar >= / <= verify on
  // every lane combination, including NaN (fails), +-inf padding lanes
  // (pass anything real), and exact boundary equality (closed intervals).
  const std::vector<double> specials{-kInf, -1.0, 0.0, 1.0, kInf, kNaN};
  util::Rng rng(7);
  alignas(32) double rec[8];
  alignas(32) double point[4];
  alignas(32) double qlo[4];
  alignas(32) double qhi[4];
  for (int round = 0; round < 4000; ++round) {
    for (int lane = 0; lane < 4; ++lane) {
      const auto pick = [&] {
        return rng.bernoulli(0.5)
                   ? specials[rng.next_below(specials.size())]
                   : rng.uniform(-2.0, 2.0);
      };
      double lo = pick(), hi = pick();
      if (lo > hi) std::swap(lo, hi);
      rec[lane] = lo;
      rec[lane + 4] = hi;
      point[lane] = pick();
      double a = pick(), b = pick();
      if (a > b) std::swap(a, b);
      qlo[lane] = a;
      qhi[lane] = b;
    }
    bool contains_ref = true, intersects_ref = true;
    for (int lane = 0; lane < 4; ++lane) {
      contains_ref = contains_ref &&
                     point[lane] >= rec[lane] && point[lane] <= rec[lane + 4];
      intersects_ref = intersects_ref &&
                       qhi[lane] >= rec[lane] && qlo[lane] <= rec[lane + 4];
    }
    EXPECT_EQ(simd::contains4(point, rec), contains_ref) << round;
    EXPECT_EQ(simd::intersects4(qlo, qhi, rec), intersects_ref) << round;
  }
}

TEST(SimdKernels, BoxKernelBodiesAgree) {
  // any_box_contains (the compiled backend) and any_box_contains_scalar
  // must agree with a naive any-lane-contains reference on attribute-major
  // layouts of every width, with real lanes drawn from a small grid (so
  // points hit endpoints exactly), +-inf and NaN endpoints, degenerate
  // ranges, and never-matching padding lanes (+inf, -inf) in the tail —
  // including all-padding layouts and points at +-inf or NaN.
  const std::vector<double> specials{-kInf, kInf, kNaN, -1.0, 0.0, 1.0};
  util::Rng rng(20261017);
  std::uint64_t hits = 0;
  for (int round = 0; round < 20'000; ++round) {
    const std::size_t dims = rng.next_below(9);
    const std::size_t lanes = rng.next_below(21);
    const std::size_t stride = simd::padded_words(lanes);
    const auto pick = [&] {
      return rng.bernoulli(0.15) ? specials[rng.next_below(specials.size())]
                                 : static_cast<double>(rng.uniform_int(-3, 3));
    };
    simd::AlignedVector<double> lo(dims * stride, kInf);
    simd::AlignedVector<double> hi(dims * stride, -kInf);
    for (std::size_t j = 0; j < dims; ++j) {
      for (std::size_t i = 0; i < lanes; ++i) {
        double a = pick(), b = rng.bernoulli(0.1) ? a : pick();
        if (a > b) std::swap(a, b);
        lo[j * stride + i] = a;
        hi[j * stride + i] = b;
      }
    }
    std::vector<double> point(dims);
    for (double& v : point) v = pick();

    bool expected = false;
    for (std::size_t i = 0; i < stride && !expected; ++i) {
      bool inside = true;
      for (std::size_t j = 0; j < dims; ++j) {
        inside = inside && point[j] >= lo[j * stride + i] &&
                 point[j] <= hi[j * stride + i];
      }
      expected = inside;
    }
    EXPECT_EQ(simd::any_box_contains(point.data(), lo.data(), hi.data(),
                                     dims, stride),
              expected)
        << round;
    EXPECT_EQ(simd::any_box_contains_scalar(point.data(), lo.data(),
                                            hi.data(), dims, stride),
              expected)
        << round;
    if (expected) ++hits;

    // Padding lanes alone never match a point with at least one attribute.
    if (dims > 0) {
      const simd::AlignedVector<double> pad_lo(dims * stride, kInf);
      const simd::AlignedVector<double> pad_hi(dims * stride, -kInf);
      EXPECT_FALSE(simd::any_box_contains(point.data(), pad_lo.data(),
                                          pad_hi.data(), dims, stride));
      EXPECT_FALSE(simd::any_box_contains_scalar(
          point.data(), pad_lo.data(), pad_hi.data(), dims, stride));
    }
  }
  EXPECT_GT(hits, 2'000u);
  EXPECT_LT(hits, 18'000u);
}

index::IndexConfig scalar_config(index::IndexConfig config) {
  config.use_simd = false;
  return config;
}

/// Runs the same churn + probe trace against a vectorized index, a scalar
/// one, and a flat scan; every decision must agree.
void run_equivalence_trace(index::IndexConfig config, std::uint64_t seed,
                           int steps, double erase_p) {
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  workload::ComparisonStream stream(stream_config, seed);
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  index::IntervalIndex vec(stream_config.attribute_count, config);
  index::IntervalIndex scalar(stream_config.attribute_count,
                              scalar_config(config));
  std::vector<Subscription> live;

  for (int step = 0; step < steps; ++step) {
    if (!live.empty() && rng.bernoulli(erase_p)) {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(vec.erase(live[victim].id()));
      ASSERT_TRUE(scalar.erase(live[victim].id()));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      Subscription sub = stream.next();
      vec.insert(sub);
      scalar.insert(sub);
      live.push_back(std::move(sub));
    }

    // Out-of-domain values clamp to the edge buckets and must not change
    // any decision, so probe well past the configured domain.
    const Publication pub = workload::uniform_publication(
        stream_config.attribute_count, -200.0, 1200.0, rng);
    std::vector<SubscriptionId> expected;
    for (const auto& sub : live) {
      if (pub.matches(sub)) expected.push_back(sub.id());
    }
    EXPECT_EQ(sorted(vec.stab(pub.values())), sorted(expected)) << step;
    EXPECT_EQ(sorted(scalar.stab(pub.values())), sorted(expected)) << step;

    workload::ScenarioConfig box_config;
    box_config.attribute_count = stream_config.attribute_count;
    const Subscription probe = workload::random_box(box_config, 0.05, 0.5, rng);
    expected.clear();
    for (const auto& sub : live) {
      if (sub.intersects(probe)) expected.push_back(sub.id());
    }
    EXPECT_EQ(sorted(vec.box_intersect(probe)), sorted(expected)) << step;
    EXPECT_EQ(sorted(scalar.box_intersect(probe)), sorted(expected)) << step;
  }
}

TEST(SimdIndexEquivalence, ChurnTraceMatchesScalarAndFlatScan) {
  run_equivalence_trace(index::IndexConfig{}, 20260807, 400, 0.25);
}

TEST(SimdIndexEquivalence, DeltaTierOnlyIndex) {
  // A compaction threshold far above the trace size keeps every live slot
  // in the delta tier for the whole run: the scalar box path must take its
  // delta flat-scan for everything, the mask path needs no special case.
  index::IndexConfig config;
  config.compaction_min = 1u << 20;
  run_equivalence_trace(config, 42, 250, 0.3);
}

TEST(SimdIndexEquivalence, EagerMutationConfig) {
  index::IndexConfig config;
  config.amortize_mutations = false;
  run_equivalence_trace(config, 7, 150, 0.3);
}

TEST(SimdIndexEquivalence, BoundaryAndNaNProbesAgreeAcrossPaths) {
  index::IndexConfig config;
  index::IntervalIndex vec(2, config);
  index::IntervalIndex scalar(2, scalar_config(config));
  const auto add = [&](double lo1, double hi1, double lo2, double hi2,
                       SubscriptionId id) {
    const Subscription sub({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
    vec.insert(sub);
    scalar.insert(sub);
  };
  add(0, 10, 0, 10, 1);
  add(-kInf, 5, 200, kInf, 2);
  add(0, 1000, -kInf, kInf, 3);        // wide on attr 1
  add(-kInf, kInf, -kInf, kInf, 4);    // fully unconstrained

  const std::vector<std::vector<Value>> probes{
      {0.0, 0.0},        // domain_lo boundary (certainty trust edge)
      {1000.0, 1000.0},  // domain_hi boundary
      {-50.0, 3.0},      // below the domain: clamped bucket, no certainty
      {3.0, 5000.0},     // above the domain
      {kNaN, 3.0},       // NaN fails constrained attrs, passes wide ones
      {3.0, kNaN},
      {kNaN, kNaN},
  };
  for (const auto& point : probes) {
    EXPECT_EQ(sorted(vec.stab(point)), sorted(scalar.stab(point)))
        << point[0] << "," << point[1];
  }

  const std::vector<Subscription> boxes{
      Subscription({Interval{0, 0}, Interval{0, 0}}, 99),
      Subscription({Interval{-kInf, -100}, Interval{-kInf, kInf}}, 99),
      Subscription({Interval{1000, 5000}, Interval{999, 1001}}, 99),
      Subscription({Interval{kNaN, kNaN}, Interval{0, 10}}, 99),
      Subscription({Interval{0, 10}, Interval{kNaN, 5}}, 99),
  };
  for (const auto& box : boxes) {
    EXPECT_EQ(sorted(vec.box_intersect(box)), sorted(scalar.box_intersect(box)))
        << box.range(0).lo;
  }
}

TEST(SimdIndexEquivalence, LargeIdsDisableThe32BitShadow) {
  // Ids above 2^32 must flow through emission unharmed (the 32-bit id
  // shadow is only read while every live id fits).
  index::IndexConfig config;
  index::IntervalIndex vec(1, config);
  index::IntervalIndex scalar(1, scalar_config(config));
  const SubscriptionId big = (SubscriptionId{1} << 40) + 7;
  for (const auto& [lo, hi, id] :
       {std::tuple{0.0, 10.0, SubscriptionId{1}},
        std::tuple{5.0, 15.0, big},
        std::tuple{8.0, 9.0, SubscriptionId{2}}}) {
    const Subscription sub({Interval{lo, hi}}, id);
    vec.insert(sub);
    scalar.insert(sub);
  }
  const std::vector<Value> point{8.5};
  EXPECT_EQ(sorted(vec.stab(point)),
            (std::vector<SubscriptionId>{1, 2, big}));
  EXPECT_EQ(sorted(vec.stab(point)), sorted(scalar.stab(point)));
  // Erasing the big id re-enables the shadow; decisions stay identical.
  ASSERT_TRUE(vec.erase(big));
  ASSERT_TRUE(scalar.erase(big));
  EXPECT_EQ(sorted(vec.stab(point)), (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(sorted(vec.stab(point)), sorted(scalar.stab(point)));
}

}  // namespace
}  // namespace psc
