// Tests for the SubsumptionEngine pipeline (Algorithm 4).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "baseline/exact_subsumption.hpp"
#include "store/subscription_store.hpp"
#include "workload/scenarios.hpp"

namespace psc::core {
namespace {

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id = 0) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

TEST(Engine, EmptySetIsDefiniteNo) {
  SubsumptionEngine engine;
  const auto result = engine.check(box2(0, 1, 0, 1), std::vector<Subscription>{});
  EXPECT_FALSE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kEmptySet);
}

TEST(Engine, PairwiseCoverFastPath) {
  SubsumptionEngine engine;
  const std::vector<Subscription> set{box2(0, 10, 0, 10, 1)};
  const auto result = engine.check(box2(2, 8, 2, 8), set);
  EXPECT_TRUE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kPairwiseCover);
  ASSERT_TRUE(result.covering_index.has_value());
  EXPECT_EQ(*result.covering_index, 0u);
  EXPECT_EQ(result.iterations, 0u);  // no sampling needed
}

TEST(Engine, PaperCoverExampleIsProbabilisticYes) {
  // Table 3: covered by the union but by no single subscription; the fast
  // paths are inconclusive and MCS keeps both rows, so with the residue
  // stage off (the paper's engine) the verdict must come from RSPC as a
  // probabilistic YES.
  SubsumptionEngine engine(EngineConfig{
      .delta = 1e-6, .max_iterations = 100'000, .exact_residue = false});
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_TRUE(result.covered);
  EXPECT_FALSE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kRspcProbabilistic);
  EXPECT_EQ(result.reduced_set_size, 2u);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_EQ(result.residue_fragments, 0u);
}

TEST(Engine, PaperCoverExampleIsExactYesWithResidue) {
  // The same instance with the residue stage on: the same verdict, now
  // definite, with no trial run and no random number drawn.
  const std::uint64_t seed = 99;
  SubsumptionEngine engine(
      EngineConfig{.delta = 1e-6, .max_iterations = 100'000}, seed);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_TRUE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kRspcProbabilistic);
  EXPECT_EQ(result.reduced_set_size, 2u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_GT(result.residue_fragments, 0u);
  EXPECT_FALSE(result.witness.has_value());
  EXPECT_EQ(engine.rng().state(), util::Rng(seed).state());
}

TEST(Engine, ResidueWitnessIsDefiniteNo) {
  // A 10 %-wide gap that only sampling or subtraction can find (fast
  // paths and MCS off): the residue stage answers NO with a fragment
  // centre that lies in s and outside every candidate.
  const std::uint64_t seed = 5;
  SubsumptionEngine engine(
      EngineConfig{.use_fast_decisions = false, .use_mcs = false}, seed);
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 45, -1, 101, 1),
                                      box2(55, 101, -1, 101, 2),
                                      box2(40, 60, 60, 101, 3)};
  const auto result = engine.check(s, set);
  EXPECT_FALSE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kRspcWitness);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_GT(result.residue_fragments, 0u);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
  EXPECT_FALSE(point_in_union(*result.witness, set));
  EXPECT_EQ(engine.rng().state(), util::Rng(seed).state());
}

TEST(Engine, PaperNonCoverExampleIsDefiniteNo) {
  // Table 6 instance: defined counts (1, 2) let Corollary 3 fire.
  SubsumptionEngine engine;
  const std::vector<Subscription> set{box2(820, 850, 1002, 1009, 1),
                                      box2(840, 870, 1001, 1007, 2)};
  const auto result = engine.check(box2(830, 890, 1003, 1006), set);
  EXPECT_FALSE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kPolyhedronWitness);
}

TEST(Engine, McsEmptyGivesDefiniteNo) {
  // Candidates intersect s but each has conflict-free entries (no joint
  // cover possible): MCS empties the set. Fast paths must not fire first:
  // counts must fail the staircase test... a single subscription covering
  // half of s on x2 only has t=1 >= 1, so use use_fast_decisions=false to
  // isolate the MCS path.
  EngineConfig config;
  config.use_fast_decisions = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(-1, 101, 50, 101, 1)};
  const auto result = engine.check(box2(0, 100, 0, 100), set);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.path, DecisionPath::kMcsEmpty);
  EXPECT_TRUE(result.mcs_ran);
  EXPECT_EQ(result.reduced_set_size, 0u);
}

TEST(Engine, RspcWitnessPathWhenFastPathsDisabled) {
  EngineConfig config;
  config.use_fast_decisions = false;
  config.use_mcs = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(-1, 40, -1, 101, 1),
                                      box2(60, 101, -1, 101, 2)};
  const auto result = engine.check(box2(0, 100, 0, 100), set);
  EXPECT_FALSE(result.covered);
  EXPECT_EQ(result.path, DecisionPath::kRspcWitness);
  ASSERT_TRUE(result.witness.has_value());
}

TEST(Engine, WitnessFromRspcIsSound) {
  EngineConfig config;
  config.use_fast_decisions = false;
  config.use_mcs = false;
  SubsumptionEngine engine(config);
  const Subscription s = box2(0, 100, 0, 100);
  const std::vector<Subscription> set{box2(-1, 40, -1, 101, 1),
                                      box2(60, 101, -1, 101, 2)};
  const auto result = engine.check(s, set);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(s.contains_point(*result.witness));
  for (const auto& si : set) EXPECT_FALSE(si.contains_point(*result.witness));
}

TEST(Engine, ReportsTheoreticalDAndBudget) {
  EngineConfig config;
  config.delta = 1e-6;
  config.max_iterations = 1000;
  config.exact_residue = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  // rho_w = 0.25 (see witness_estimate_test) => d = ceil(ln 1e-6 / ln .75) = 49.
  EXPECT_DOUBLE_EQ(result.rho_w, 0.25);
  EXPECT_DOUBLE_EQ(result.theoretical_d, 49.0);
  EXPECT_EQ(result.trial_budget, 49u);
  EXPECT_EQ(result.iterations, 49u);  // covered => exhausts budget
}

TEST(Engine, ReportsTheoreticalDAndBudgetWithResidue) {
  // The estimate runs before the residue stage, so it reports the same
  // rho_w, d and budget; the residue stage decides within that budget.
  EngineConfig config;
  config.delta = 1e-6;
  config.max_iterations = 1000;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_DOUBLE_EQ(result.rho_w, 0.25);
  EXPECT_DOUBLE_EQ(result.theoretical_d, 49.0);
  EXPECT_EQ(result.trial_budget, 49u);
  EXPECT_TRUE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_GT(result.residue_fragments, 0u);
  EXPECT_LE(result.residue_fragments, result.trial_budget);
}

/// Checks s against set with the residue stage on and off, from one seed,
/// and expects the residue-on engine to have given the query to RSPC: the
/// same verdict, path, iterations, witness and post-call RNG state.
SubsumptionResult expect_falls_through_to_rspc(
    EngineConfig config, const Subscription& s,
    const std::vector<Subscription>& set) {
  config.exact_residue = true;
  SubsumptionEngine on(config, 42);
  config.exact_residue = false;
  SubsumptionEngine off(config, 42);
  const SubsumptionResult a = on.check(s, set);
  const SubsumptionResult b = off.check(s, set);
  EXPECT_EQ(a.residue_fragments, 0u);
  EXPECT_GT(a.iterations, 0u);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.is_definite, b.is_definite);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(on.rng().state(), off.rng().state());
  return a;
}

/// s = [-1, 0]^3 x [0, 1] and `levels` candidates. Candidate i starts
/// halfway (toward 0) into the fragment the previous one left on top of
/// the residue stack and runs past it on every upper side, so each cut
/// tests one candidate and leaves one new fragment per attribute: net +3
/// live fragments per level. Endpoints are powers of two, so every cut is
/// exact. Not covered: the first cut already leaves [-1, -0.5] x ... open.
workload::Instance nested_cuts(std::size_t levels) {
  constexpr std::size_t kAttrs = 4;
  std::vector<Interval> top(kAttrs, Interval{-1.0, 0.0});
  top[kAttrs - 1] = Interval{0.0, 1.0};
  workload::Instance inst{Subscription(top, 0), {}, false};
  for (std::size_t level = 0; level < levels; ++level) {
    std::vector<Interval> cut(kAttrs);
    for (std::size_t j = 0; j + 1 < kAttrs; ++j) {
      cut[j] = Interval{top[j].lo / 2, 1.0};
      top[j].lo = cut[j].lo;
    }
    cut[kAttrs - 1] = Interval{top[kAttrs - 1].hi / 2, 2.0};
    top[kAttrs - 1].hi = cut[kAttrs - 1].lo;
    inst.existing.emplace_back(cut, static_cast<SubscriptionId>(level + 1));
  }
  return inst;
}

TEST(Engine, ResidueOverFragmentCapFallsThroughToRspc) {
  EngineConfig config;
  config.delta = 1e-300;
  config.use_fast_decisions = false;
  config.use_mcs = false;
  constexpr std::size_t kLevelsAtCap = kResidueFragmentCap / 3;
  // Below the cap the residue stage decides the instance itself...
  const workload::Instance small = nested_cuts(kLevelsAtCap - 10);
  SubsumptionEngine engine(config);
  const SubsumptionResult decided = engine.check(small.tested, small.existing);
  EXPECT_FALSE(decided.covered);
  EXPECT_GT(decided.residue_fragments, 0u);
  EXPECT_EQ(decided.iterations, 0u);
  // ...past it, it gives the query to RSPC, well inside the visit budget.
  const workload::Instance big = nested_cuts(kLevelsAtCap + 10);
  const SubsumptionResult result =
      expect_falls_through_to_rspc(config, big.tested, big.existing);
  EXPECT_GT(result.trial_budget, 2 * big.existing.size());
  EXPECT_FALSE(result.covered);
}

TEST(Engine, ResidueOverVisitBudgetFallsThroughToRspc) {
  // s = [0, 10]^2 covered by a 10 x 10 grid of slightly overlapping cells,
  // each the only one holding its own centre: subtracting them all takes
  // at least 100 fragment visits, while the trial budget is capped at 50.
  const Subscription s = box2(0, 10, 0, 10);
  std::vector<Subscription> set;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      set.push_back(box2(x - 0.1, x + 1.1, y - 0.1, y + 1.1,
                         static_cast<SubscriptionId>(10 * x + y + 1)));
    }
  }
  EngineConfig config;
  config.max_iterations = 50;
  const SubsumptionResult result = expect_falls_through_to_rspc(config, s, set);
  EXPECT_EQ(result.trial_budget, 50u);
  EXPECT_TRUE(result.covered);
  EXPECT_FALSE(result.is_definite);
  // With the full default budget the residue stage decides it exactly.
  SubsumptionEngine engine;
  const SubsumptionResult exact = engine.check(s, set);
  EXPECT_TRUE(exact.covered);
  EXPECT_TRUE(exact.is_definite);
  EXPECT_GT(exact.residue_fragments, 50u);
}

TEST(Engine, BudgetCapRespected) {
  EngineConfig config;
  config.delta = 1e-10;
  config.max_iterations = 10;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_LE(result.iterations, 10u);
  EXPECT_EQ(result.trial_budget, 10u);
}

TEST(Engine, McsReducesBeforeSampling) {
  // Table 7/8 fixture: MCS removes s3, leaving 2 candidates.
  SubsumptionEngine engine;
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2),
                                      box2(810, 890, 1004, 1005, 3)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_TRUE(result.mcs_ran);
  EXPECT_EQ(result.original_set_size, 3u);
  EXPECT_EQ(result.reduced_set_size, 2u);
  EXPECT_TRUE(result.covered);  // still covered by s1 v s2
}

TEST(Engine, DisablingMcsKeepsFullSet) {
  EngineConfig config;
  config.use_mcs = false;
  SubsumptionEngine engine(config);
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2),
                                      box2(810, 890, 1004, 1005, 3)};
  const auto result = engine.check(box2(830, 870, 1003, 1006), set);
  EXPECT_FALSE(result.mcs_ran);
  EXPECT_EQ(result.reduced_set_size, 3u);
}

TEST(Engine, ConfigValidation) {
  EXPECT_THROW(SubsumptionEngine(EngineConfig{.delta = 0.0}), std::invalid_argument);
  EXPECT_THROW(SubsumptionEngine(EngineConfig{.delta = 1.0}), std::invalid_argument);
  EngineConfig zero_iter{};
  zero_iter.max_iterations = 0;
  EXPECT_THROW((void)SubsumptionEngine{zero_iter}, std::invalid_argument);
  SubsumptionEngine engine;
  EXPECT_THROW(engine.set_config(EngineConfig{.delta = 2.0}), std::invalid_argument);
}

TEST(Engine, DeterministicAcrossIdenticalSeeds) {
  const std::vector<Subscription> set{box2(820, 850, 1001, 1007, 1),
                                      box2(840, 880, 1002, 1009, 2)};
  SubsumptionEngine a(EngineConfig{}, 123);
  SubsumptionEngine b(EngineConfig{}, 123);
  const auto ra = a.check(box2(830, 870, 1003, 1006), set);
  const auto rb = b.check(box2(830, 870, 1003, 1006), set);
  EXPECT_EQ(ra.covered, rb.covered);
  EXPECT_EQ(ra.iterations, rb.iterations);
}

TEST(Engine, SingleAttributeInstances) {
  SubsumptionEngine engine;
  const Subscription s({Interval{0, 10}});
  // Two pieces covering [0,10] jointly.
  const std::vector<Subscription> covering{
      Subscription({Interval{-1, 6}}, 1), Subscription({Interval{5, 11}}, 2)};
  EXPECT_TRUE(engine.check(s, covering).covered);
  // Gap at (6, 7).
  const std::vector<Subscription> gapped{
      Subscription({Interval{-1, 6}}, 1), Subscription({Interval{7, 11}}, 2)};
  EXPECT_FALSE(engine.check(s, gapped).covered);
}

TEST(Engine, DegenerateTestedSubscription) {
  // Zero-volume s (a point-like box). Pairwise containment decides it.
  SubsumptionEngine engine;
  const Subscription s({Interval::point(5.0), Interval{0, 1}});
  const std::vector<Subscription> set{box2(0, 10, -1, 2, 1)};
  const auto result = engine.check(s, set);
  EXPECT_TRUE(result.covered);
  EXPECT_EQ(result.path, DecisionPath::kPairwiseCover);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Engine, UnboundedAttributeMatchesExactOracle) {
  // The paper writes an insignificant attribute as (-inf, inf). Such an s
  // used to reach RSPC and throw; the engine now either answers NO from a
  // side no candidate is unbounded on, or clamps the side just past every
  // finite endpoint. Every verdict must equal the exact oracle's.
  const Interval all{-kInf, kInf};
  struct Case {
    const char* name;
    Subscription s;
    std::vector<Subscription> set;
    bool covered;
  };
  const std::vector<Case> cases{
      {"union of two slabs unbounded on x2",
       Subscription({Interval{0, 10}, all}),
       {Subscription({Interval{-1, 6}, all}, 1),
        Subscription({Interval{4, 11}, all}, 2)},
       true},
      {"half-lines and a finite overlap on x2",
       Subscription({Interval{0, 10}, all}),
       {Subscription({Interval{-1, 6}, Interval{-kInf, 5}}, 1),
        Subscription({Interval{-1, 6}, Interval{3, kInf}}, 2),
        Subscription({Interval{4, 11}, all}, 3)},
       true},
      {"finite gap on x2 between two half-lines",
       Subscription({Interval{0, 10}, all}),
       {Subscription({Interval{-1, 6}, all}, 1),
        Subscription({Interval{4, 11}, Interval{-kInf, 100}}, 2),
        Subscription({Interval{4, 11}, Interval{101, kInf}}, 3)},
       false},
      {"lower half-line on x2 covered only for x1 <= 5",
       Subscription({Interval{0, 10}, all}),
       {Subscription({Interval{-1, 11}, Interval{-5, kInf}}, 1),
        Subscription({Interval{-1, 5}, Interval{-kInf, 0}}, 2)},
       false},
      {"no candidate unbounded above on x1",
       Subscription({all, Interval{0, 10}}),
       {Subscription({Interval{-kInf, 5}, Interval{-1, 11}}, 1),
        Subscription({Interval{4, 1e6}, Interval{-1, 11}}, 2)},
       false},
  };
  for (const Case& c : cases) {
    const auto exact = baseline::exact_subsumption(c.s, c.set);
    ASSERT_EQ(exact.covered, c.covered) << c.name;
    SubsumptionEngine engine;
    SubsumptionResult result;
    ASSERT_NO_THROW(result = engine.check(c.s, c.set)) << c.name;
    EXPECT_EQ(result.covered, exact.covered) << c.name;
    if (result.witness) {
      EXPECT_TRUE(c.s.contains_point(*result.witness)) << c.name;
      EXPECT_FALSE(point_in_union(*result.witness, c.set)) << c.name;
    }
  }
}

TEST(Engine, UnboundedSideNoCandidateReachesIsPolyhedronWitness) {
  // Decided before the conflict table, so even with the fast paths off
  // (where only sampling could find the uncovered half-line) the NO is
  // definite and exact.
  SubsumptionEngine engine(EngineConfig{.use_fast_decisions = false});
  const Subscription s({Interval{0, 10}, Interval{0, kInf}});
  const std::vector<Subscription> set{
      Subscription({Interval{-1, 11}, Interval{-1, 1e9}}, 1)};
  const auto result = engine.check(s, set);
  EXPECT_FALSE(result.covered);
  EXPECT_TRUE(result.is_definite);
  EXPECT_EQ(result.path, DecisionPath::kPolyhedronWitness);
}

TEST(Engine, GroupStoreAcceptsUnboundedSubscription) {
  // End to end through the group policy: the store used to let the RSPC
  // exception escape insert().
  const Interval all{-kInf, kInf};
  store::SubscriptionStore store;
  ASSERT_TRUE(store.insert(Subscription({Interval{-1, 6}, all}, 1)).accepted_active);
  ASSERT_TRUE(store.insert(Subscription({Interval{4, 11}, all}, 2)).accepted_active);
  store::InsertResult result;
  ASSERT_NO_THROW(result = store.insert(Subscription({Interval{0, 10}, all}, 3)));
  EXPECT_TRUE(result.covered);
  EXPECT_FALSE(result.accepted_active);
}

TEST(Engine, DecisionPathNames) {
  EXPECT_EQ(to_string(DecisionPath::kEmptySet), "empty-set");
  EXPECT_EQ(to_string(DecisionPath::kPairwiseCover), "pairwise-cover");
  EXPECT_EQ(to_string(DecisionPath::kPolyhedronWitness), "polyhedron-witness");
  EXPECT_EQ(to_string(DecisionPath::kMcsEmpty), "mcs-empty");
  EXPECT_EQ(to_string(DecisionPath::kRspcWitness), "rspc-witness");
  EXPECT_EQ(to_string(DecisionPath::kRspcProbabilistic), "rspc-probabilistic");
}

}  // namespace
}  // namespace psc::core
