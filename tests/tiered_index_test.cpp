// Property tests for the two-tier churn-amortized IntervalIndex: across
// delta-only, tombstone-heavy, and just-compacted states, both query kinds
// must return exactly the id set of (a) a flat scan over the live
// subscriptions and (b) a freshly built index — i.e. the tier machinery is
// invisible to every consumer. Also replays deterministic churn-workload
// traces (workload::generate_churn_trace) with TTL expiries against
// amortized, eager, and flat references in lockstep, bounds the delta-run
// logs under short-lived churn, and property-tests the wide-row path
// (slots wide on an attribute carry no bucket bits, only a wide-row bit)
// against flat scans on the SIMD and scalar paths.
#include "index/interval_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/churn_workload.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace psc::index {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;
using core::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Checks stab and box_intersect of `index` against a flat scan over
/// `live` and against a freshly built index over the same set, on several
/// random probes.
void expect_equivalent_queries(const IntervalIndex& index,
                               const std::vector<Subscription>& live,
                               std::size_t attribute_count, util::Rng& rng,
                               int probes, const char* state) {
  IntervalIndex fresh(attribute_count, index.config());
  for (const Subscription& sub : live) fresh.insert(sub);

  for (int probe = 0; probe < probes; ++probe) {
    const Publication pub =
        workload::uniform_publication(attribute_count, -100.0, 1100.0, rng);
    std::vector<SubscriptionId> expected_stab;
    for (const Subscription& sub : live) {
      if (pub.matches(sub)) expected_stab.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.stab(pub.values())), sorted(expected_stab))
        << state << " probe " << probe;
    EXPECT_EQ(sorted(fresh.stab(pub.values())), sorted(expected_stab))
        << state << " probe " << probe;

    workload::ScenarioConfig box_config;
    box_config.attribute_count = attribute_count;
    const Subscription box = workload::random_box(box_config, 0.05, 0.5, rng);
    std::vector<SubscriptionId> expected_box;
    for (const Subscription& sub : live) {
      if (sub.intersects(box)) expected_box.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.box_intersect(box)), sorted(expected_box))
        << state << " probe " << probe;
    EXPECT_EQ(sorted(fresh.box_intersect(box)), sorted(expected_box))
        << state << " probe " << probe;
  }
}

TEST(TieredIndex, DeltaOnlyTombstoneHeavyAndJustCompactedStates) {
  const std::size_t attrs = 5;
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = attrs;
  workload::ComparisonStream stream(stream_config, 404);
  util::Rng rng(11);

  // Thresholds high enough that nothing compacts until forced: the test
  // drives the index through each tier state explicitly.
  IndexConfig config;
  config.compaction_min = 1'000'000;
  IntervalIndex index(attrs, config);
  std::vector<Subscription> live;

  // --- State 1: delta-only (every insert pending, no tombstones).
  for (int i = 0; i < 120; ++i) {
    Subscription sub = stream.next();
    index.insert(sub);
    live.push_back(std::move(sub));
  }
  ASSERT_GT(index.delta_size(), 0u);
  ASSERT_EQ(index.tombstone_count(), 0u);
  ASSERT_EQ(index.compactions(), 0u);
  expect_equivalent_queries(index, live, attrs, rng, 20, "delta-only");

  // --- State 2: just-compacted (forced; everything in the main tier).
  index.compact();
  ASSERT_EQ(index.delta_size(), 0u);
  ASSERT_EQ(index.compactions(), 1u);
  expect_equivalent_queries(index, live, attrs, rng, 20, "just-compacted");

  // --- State 3: tombstone-heavy (erase half of the main tier) plus a
  // fresh sprinkling of delta inserts on top.
  for (int i = 0; i < 60; ++i) {
    const std::size_t victim = rng.next_below(live.size());
    ASSERT_TRUE(index.erase(live[victim].id()));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  for (int i = 0; i < 25; ++i) {
    Subscription sub = stream.next();
    index.insert(sub);
    live.push_back(std::move(sub));
  }
  ASSERT_GT(index.tombstone_count(), 0u);
  ASSERT_GT(index.delta_size(), 0u);
  expect_equivalent_queries(index, live, attrs, rng, 20, "tombstone-heavy");

  // --- Back to clean: compaction releases every tombstone and the free
  // slots are reusable.
  index.compact();
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.delta_size(), 0u);
  expect_equivalent_queries(index, live, attrs, rng, 10, "recompacted");
  EXPECT_EQ(index.size(), live.size());
}

TEST(TieredIndex, ErasedDeltaSlotLeavesNoTrace) {
  // Insert-then-erase within one delta window must fully restore the
  // slot's mask rows (a stale zero-bit would wrongly prune a reused slot).
  IndexConfig config;
  config.compaction_min = 1'000'000;
  IntervalIndex index(2, config);
  index.insert(Subscription({core::Interval{0, 10}, core::Interval{0, 10}}, 1));
  ASSERT_EQ(index.delta_size(), 1u);
  ASSERT_TRUE(index.erase(1));
  ASSERT_EQ(index.delta_size(), 0u);
  ASSERT_EQ(index.tombstone_count(), 0u);

  // The freed slot is reused by a subscription constraining a DIFFERENT
  // region; probes into both regions must answer exactly.
  index.insert(Subscription({core::Interval{500, 600}, core::Interval{500, 600}}, 2));
  EXPECT_TRUE(index.stab(std::vector<Value>{5.0, 5.0}).empty());
  EXPECT_EQ(index.stab(std::vector<Value>{550.0, 550.0}),
            (std::vector<SubscriptionId>{2}));
}

TEST(TieredIndex, TombstonedSlotIsNotResurrectedByStaleEndpoints) {
  IndexConfig config;
  config.compaction_min = 1'000'000;
  IntervalIndex index(1, config);
  index.insert(Subscription({core::Interval{0, 10}}, 1));
  index.insert(Subscription({core::Interval{5, 15}}, 2));
  index.compact();  // both in the main tier
  ASSERT_TRUE(index.erase(1));
  ASSERT_EQ(index.tombstone_count(), 1u);

  // Stale endpoints of #1 are still in the sorted arrays; neither query
  // may emit it.
  EXPECT_EQ(index.stab(std::vector<Value>{7.0}),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(index.box_intersect(Subscription({core::Interval{0, 20}}, 99)),
            (std::vector<SubscriptionId>{2}));
  EXPECT_FALSE(index.contains(1));
  EXPECT_EQ(index.size(), 1u);
}

TEST(TieredIndex, ThresholdTriggersCompactionAutomatically) {
  IndexConfig config;
  config.compaction_min = 32;
  config.compaction_slack = 0.0;
  IntervalIndex index(2, config);
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 2;
  stream_config.max_constrained = 2;
  workload::ComparisonStream stream(stream_config, 7);
  for (int i = 0; i < 200; ++i) index.insert(stream.next());
  EXPECT_GT(index.compactions(), 0u);
  // Pending mutations never exceed the threshold after a mutation settles.
  EXPECT_LT(index.delta_size() + index.tombstone_count(), 32u + 1u);
}

/// Replays the subscribe/unsubscribe/TTL-expiry/publish sequence of a
/// churn-workload trace against three replicas — amortized (production
/// thresholds), eager (pre-tier ablation), and a flat live map — checking
/// every publish as a stab probe on all of them.
void replay_trace(const workload::ChurnTrace& trace, IndexConfig amortized_cfg) {
  IndexConfig eager_cfg = amortized_cfg;
  eager_cfg.amortize_mutations = false;

  const std::size_t attrs = trace.config.attribute_count;
  IntervalIndex amortized(attrs, amortized_cfg);
  IntervalIndex eager(attrs, eager_cfg);
  std::unordered_map<SubscriptionId, Subscription> live;
  std::vector<std::pair<sim::SimTime, SubscriptionId>> expiries;

  const auto expire_due = [&](sim::SimTime now) {
    for (std::size_t i = 0; i < expiries.size();) {
      if (expiries[i].first <= now) {
        const SubscriptionId id = expiries[i].second;
        if (live.erase(id) > 0) {
          ASSERT_TRUE(amortized.erase(id));
          ASSERT_TRUE(eager.erase(id));
        }
        expiries[i] = expiries.back();
        expiries.pop_back();
      } else {
        ++i;
      }
    }
  };

  std::size_t checked_publishes = 0;
  for (const workload::ChurnOp& op : trace.ops) {
    expire_due(op.time);
    switch (op.kind) {
      case workload::ChurnOpKind::kSubscribe:
        amortized.insert(op.sub);
        eager.insert(op.sub);
        live.emplace(op.sub.id(), op.sub);
        break;
      case workload::ChurnOpKind::kSubscribeTtl:
        amortized.insert(op.sub);
        eager.insert(op.sub);
        live.emplace(op.sub.id(), op.sub);
        expiries.emplace_back(op.time + op.ttl, op.sub.id());
        break;
      case workload::ChurnOpKind::kUnsubscribe:
        if (live.erase(op.id) > 0) {
          ASSERT_TRUE(amortized.erase(op.id));
          ASSERT_TRUE(eager.erase(op.id));
        }
        break;
      case workload::ChurnOpKind::kPublish: {
        std::vector<SubscriptionId> expected;
        for (const auto& [id, sub] : live) {
          if (op.pub.matches(sub)) expected.push_back(id);
        }
        const auto expected_sorted = sorted(std::move(expected));
        ASSERT_EQ(sorted(amortized.stab(op.pub.values())), expected_sorted);
        ASSERT_EQ(sorted(eager.stab(op.pub.values())), expected_sorted);
        ++checked_publishes;
        break;
      }
      case workload::ChurnOpKind::kAdvance:
      case workload::ChurnOpKind::kMembership:  // membership rates are zero
        break;
    }
    ASSERT_EQ(amortized.size(), live.size());
    ASSERT_EQ(eager.size(), live.size());
  }
  ASSERT_GT(checked_publishes, 0u);
}

TEST(TieredIndex, ChurnTraceReplayMatchesEagerAndFlat) {
  workload::ChurnConfig config;
  config.duration = 40.0;
  config.subscription_rate = 3.0;
  config.publication_rate = 4.0;
  config.mean_lifetime = 5.0;

  for (const std::uint64_t seed : {1ull, 2006ull, 0xfeedull}) {
    const auto trace = workload::generate_churn_trace(config, 4, seed);
    // Tiny thresholds: compaction fires constantly mid-trace.
    IndexConfig tight;
    tight.compaction_min = 8;
    tight.compaction_slack = 0.0;
    replay_trace(trace, tight);
    // Huge thresholds: the whole trace lives in the delta/tombstone state.
    IndexConfig loose;
    loose.compaction_min = 1'000'000;
    replay_trace(trace, loose);
  }
}

TEST(TieredIndex, ShortLivedChurnKeepsDeltaLogsBounded) {
  // Erasing a delta-tier slot leaves its delta-run entries in the logs
  // until the next compaction trims them. Those erasures must count toward
  // the compaction threshold: otherwise a stream of short-lived
  // subscriptions never compacts and the logs grow without bound.
  const std::size_t attrs = 4;
  const std::size_t threshold = 64;
  IndexConfig config;
  config.compaction_min = threshold;
  config.compaction_slack = 0.0;
  IntervalIndex index(attrs, config);
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = attrs;
  stream_config.max_constrained = attrs;
  workload::ComparisonStream stream(stream_config, 2026);
  util::Rng rng(5);

  std::vector<Subscription> live;
  for (int i = 0; i < 1000; ++i) {
    Subscription sub = stream.next();
    index.insert(sub);
    live.push_back(std::move(sub));
  }
  const std::size_t long_lived = live.size();
  const std::uint64_t compactions_before = index.compactions();

  // Insert/erase pairs on recent ids: each erase picks one of the newest
  // few subscriptions, so almost every erasure hits the delta tier.
  constexpr std::size_t kWindow = 5;
  std::size_t peak_log = 0;
  for (int pair = 0; pair < 20'000; ++pair) {
    Subscription sub = stream.next();
    index.insert(sub);
    live.push_back(std::move(sub));
    if (live.size() - long_lived >= kWindow) {
      const std::size_t victim = live.size() - 1 - rng.next_below(kWindow);
      ASSERT_TRUE(index.erase(live[victim].id()));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    peak_log = std::max(peak_log, index.delta_log_size());
    if (pair % 2500 == 0) {
      expect_equivalent_queries(index, live, attrs, rng, 3, "short-lived churn");
    }
  }
  // Between compactions the logs hold at most 2 * attrs entries per insert,
  // and fewer than `threshold` inserts are pending after any mutation.
  EXPECT_LE(peak_log, 2 * attrs * threshold);
  EXPECT_GT(index.compactions(), compactions_before + 100);
  EXPECT_EQ(index.size(), live.size());
  expect_equivalent_queries(index, live, attrs, rng, 10, "after short-lived churn");
}

// --- Wide-row path ------------------------------------------------------
//
// A slot that is wide on attribute j (its interval covers the configured
// domain, everything() included) has no bucket bits on j; queries OR in
// the attribute's wide row instead whenever some live slot is wide on j.
// None of the benchmark workloads produce wide slots, so these tests
// drive that path directly on a small [0, 100] domain of 16 buckets.

IndexConfig small_domain_config() {
  IndexConfig config;
  config.domain_lo = 0.0;
  config.domain_hi = 100.0;
  config.bucket_count = 16;
  return config;
}

/// Builds a subscription that may carry empty intervals (lo > hi). The
/// public constructor rejects those; Subscription::intersect is what
/// produces them, so each empty [lo, hi] comes from intersecting
/// [hi - 1, hi] with [lo, lo + 1]. Every other range (NaN endpoints
/// included) intersects with itself and comes back unchanged.
Subscription make_sub(const std::vector<Interval>& ranges, SubscriptionId id) {
  std::vector<Interval> left = ranges;
  std::vector<Interval> right = ranges;
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    if (ranges[j].is_empty()) {
      left[j] = Interval{ranges[j].hi - 1.0, ranges[j].hi};
      right[j] = Interval{ranges[j].lo, ranges[j].lo + 1.0};
    }
  }
  Subscription sub =
      Subscription(std::move(left)).intersect(Subscription(std::move(right)));
  sub.set_id(id);
  return sub;
}

/// One attribute interval over the [0, 100] domain, mixing every shape
/// the mask writes distinguish: selective, exactly domain-covering,
/// everything(), ±inf endpoints (wide or not), beyond the domain, and
/// single points.
Interval draw_interval(util::Rng& rng) {
  switch (rng.next_below(10)) {
    case 0: return Interval::everything();
    case 1: return Interval{0.0, 100.0};
    case 2: return Interval{-kInf, rng.uniform(100.0, 200.0)};
    case 3: return Interval{rng.uniform(-50.0, 0.0), kInf};
    case 4: return Interval{-kInf, rng.uniform(-20.0, 120.0)};
    case 5: return Interval{rng.uniform(-20.0, 120.0), kInf};
    case 6: return Interval{rng.uniform(110.0, 150.0), rng.uniform(150.0, 200.0)};
    case 7: {
      const double v = 6.25 * static_cast<double>(rng.next_below(17));
      return Interval{v, v};
    }
    default: {
      const double lo = rng.uniform(-10.0, 100.0);
      return Interval{lo, lo + rng.uniform(0.0, 30.0)};
    }
  }
}

/// One probe coordinate: in-domain, on a bucket boundary or a domain
/// edge, out of the domain, infinite, or NaN.
Value draw_value(util::Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: return 6.25 * static_cast<double>(rng.next_below(17));
    case 1: return rng.uniform(-40.0, 0.0);
    case 2: return rng.uniform(100.0, 140.0);
    case 3: return rng.bernoulli(0.5) ? kInf : -kInf;
    case 4: return kNaN;
    default: return rng.uniform(0.0, 100.0);
  }
}

/// stab's reference predicate: Subscription::contains_point, except that
/// an unconstrained (everything()) attribute passes any value, NaN
/// included — the index never checks attributes nobody constrains.
bool stab_reference(const Subscription& sub, std::span<const Value> point) {
  for (std::size_t j = 0; j < point.size(); ++j) {
    const Interval& iv = sub.range(j);
    if (iv != Interval::everything() && !iv.contains(point[j])) return false;
  }
  return true;
}

/// Checks stab against stab_reference and box_intersect against
/// Subscription::intersects, each as a flat scan of `live`.
void expect_flat_equal(const IntervalIndex& index,
                       const std::vector<Subscription>& live,
                       const std::vector<std::vector<Value>>& points,
                       const std::vector<Subscription>& boxes,
                       const std::string& where) {
  for (const auto& point : points) {
    std::vector<SubscriptionId> expected;
    for (const Subscription& sub : live) {
      if (stab_reference(sub, point)) expected.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.stab(point)), sorted(expected)) << where;
  }
  for (const Subscription& box : boxes) {
    std::vector<SubscriptionId> expected;
    for (const Subscription& sub : live) {
      if (sub.intersects(box)) expected.push_back(sub.id());
    }
    EXPECT_EQ(sorted(index.box_intersect(box)), sorted(expected)) << where;
  }
}

/// The index variants every wide-row test runs in lockstep: amortized
/// with constant compaction, amortized never compacting, and eager — each
/// on the SIMD and the scalar query path.
std::vector<IntervalIndex> wide_row_variants(std::size_t attrs) {
  std::vector<IntervalIndex> variants;
  for (const bool use_simd : {true, false}) {
    IndexConfig tight = small_domain_config();
    tight.compaction_min = 4;
    tight.compaction_slack = 0.0;
    IndexConfig loose = small_domain_config();
    loose.compaction_min = 1'000'000;
    IndexConfig eager = small_domain_config();
    eager.amortize_mutations = false;
    for (IndexConfig config : {tight, loose, eager}) {
      config.use_simd = use_simd;
      variants.emplace_back(attrs, config);
    }
  }
  return variants;
}

std::string variant_name(const IntervalIndex& index) {
  const IndexConfig& config = index.config();
  std::string name = config.use_simd ? "simd" : "scalar";
  if (!config.amortize_mutations) return name + "/eager";
  return name + (config.compaction_min < 1000 ? "/tight" : "/loose");
}

TEST(WideRows, SlotReuseFlipsAttributeBetweenSelectiveAndWide) {
  // One long-lived selective anchor keeps attribute 0 selective for some
  // live slot, so the wide row is consulted; a second slot is freed and
  // reused over and over, its attribute 0 cycling through selective,
  // everything(), domain-covering, half-infinite, NaN and empty shapes. A
  // stale bucket bit or wide bit left by any previous occupant would show
  // up as a wrong answer on one of the probes.
  const std::vector<Interval> shapes{
      Interval{10, 20},     Interval::everything(), Interval{0, 100},
      Interval{-kInf, 300}, Interval{50, 60},       Interval{kNaN, 50},
      Interval{-kInf, 30},  Interval{70, kInf},     Interval{40, 10},
      Interval{-5, 105},    Interval{41, 40.5},     Interval{10, 20},
      Interval{20, kNaN},   Interval::everything()};
  std::vector<std::vector<Value>> points;
  for (const Value v : {-10.0, 0.0, 6.25, 15.0, 40.75, 42.0, 55.0, 100.0, 150.0,
                        kInf, -kInf, kNaN}) {
    for (const Value w : {42.0, -5.0, 200.0}) points.push_back({v, w});
  }
  std::vector<Subscription> boxes;
  for (const Interval& q :
       {Interval{12, 13}, Interval{41, 41}, Interval{-50, -10}, Interval{0, 100},
        Interval{99, 300}, Interval{-kInf, kInf}, Interval{-kInf, 5},
        Interval{30, 45}}) {
    boxes.push_back(Subscription({q, Interval{0, 1}}, 999));
  }

  for (IntervalIndex& index : wide_row_variants(2)) {
    const std::string name = variant_name(index);
    std::vector<Subscription> live{
        Subscription({Interval{40, 45}, Interval{40, 45}}, 1)};
    index.insert(live.front());
    SubscriptionId id = 2;
    for (const Interval& shape : shapes) {
      live.push_back(make_sub({shape, Interval{0, 100}}, id));
      index.insert(live.back());
      // NaN and empty ranges are outside box_intersect's contract (the
      // public Subscription constructor rejects empty ones); stab is exact
      // for them, and the probes after their erasure check that they left
      // no stale bits behind.
      const bool well_formed =
          !shape.is_empty() && !std::isnan(shape.lo) && !std::isnan(shape.hi);
      const std::string where = name + " inserted " + std::to_string(id);
      expect_flat_equal(index, live, points,
                        well_formed ? boxes : std::vector<Subscription>{}, where);
      ASSERT_TRUE(index.erase(id));
      live.pop_back();
      expect_flat_equal(index, live, points, boxes,
                        name + " erased " + std::to_string(id));
      ++id;
    }
  }
}

TEST(WideRows, RandomChurnMatchesFlatScanOnEveryPath) {
  const std::size_t attrs = 3;
  util::Rng rng(20061127);
  std::vector<IntervalIndex> variants = wide_row_variants(attrs);
  std::vector<Subscription> live;
  SubscriptionId next_id = 1;

  for (int step = 0; step < 1500; ++step) {
    // Churn around ~40 live subscriptions so freed slots keep being
    // reused by subscriptions of a different shape.
    const double erase_p = live.size() > 40 ? 0.6 : 0.35;
    if (!live.empty() && rng.bernoulli(erase_p)) {
      const std::size_t victim = rng.next_below(live.size());
      for (IntervalIndex& index : variants) {
        ASSERT_TRUE(index.erase(live[victim].id())) << variant_name(index);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      std::vector<Interval> ranges(attrs);
      for (Interval& iv : ranges) iv = draw_interval(rng);
      live.emplace_back(std::move(ranges), next_id++);
      for (IntervalIndex& index : variants) index.insert(live.back());
    }

    std::vector<std::vector<Value>> points(2, std::vector<Value>(attrs));
    for (auto& point : points) {
      for (Value& v : point) v = draw_value(rng);
    }
    std::vector<Interval> box_ranges(attrs);
    for (Interval& iv : box_ranges) iv = draw_interval(rng);
    const std::vector<Subscription> boxes{
        Subscription(std::move(box_ranges), 999'999)};
    for (const IntervalIndex& index : variants) {
      expect_flat_equal(index, live, points, boxes,
                        variant_name(index) + " step " + std::to_string(step));
    }
  }
  for (const IntervalIndex& index : variants) {
    EXPECT_EQ(index.size(), live.size()) << variant_name(index);
    if (index.config().amortize_mutations && index.config().compaction_min < 1000) {
      EXPECT_GT(index.compactions(), 0u) << variant_name(index);
    }
  }
}

}  // namespace
}  // namespace psc::index
