// Verifies the EngineWorkspace refactor's zero-allocation guarantee: after
// a warm-up query has grown the workspace buffers to the working-set size,
// repeated SubsumptionEngine::check calls perform no heap allocations.
//
// Counting replaces the global allocation functions for this test binary
// (tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

namespace psc::core {
namespace {

workload::Instance redundant_covering_instance() {
  workload::ScenarioConfig config;
  config.attribute_count = 10;
  config.set_size = 120;
  util::Rng rng(2026);
  return workload::make_redundant_covering(config, rng);
}

TEST(EngineWorkspace, SteadyStateChecksDoNotAllocate) {
  // Redundant covering: no pairwise fast path, so the full pipeline runs
  // (conflict table, fast decisions, MCS, estimate, RSPC — the residue
  // stage is off) every check and the verdict is a probabilistic YES — no
  // witness copy.
  const auto inst = redundant_covering_instance();

  EngineConfig engine_config;
  engine_config.max_iterations = 2'000;
  engine_config.exact_residue = false;
  SubsumptionEngine engine(engine_config, 7);

  // Warm-up: grows every workspace buffer to the working-set size.
  for (int i = 0; i < 3; ++i) {
    const auto warm = engine.check(inst.tested, inst.existing);
    ASSERT_TRUE(warm.covered);
    ASSERT_EQ(warm.path, DecisionPath::kRspcProbabilistic);
  }

  AllocationGuard guard;
  for (int i = 0; i < 50; ++i) {
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_TRUE(result.covered);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state engine checks must reuse the workspace";
}

TEST(EngineWorkspace, ExactResidueYesDoesNotAllocate) {
  // The same instance with the residue stage on: the same verdict, now an
  // exact YES with no trial run, and still no steady-state allocation.
  const auto inst = redundant_covering_instance();
  EngineConfig engine_config;
  engine_config.max_iterations = 2'000;
  SubsumptionEngine engine(engine_config, 7);
  for (int i = 0; i < 3; ++i) {
    const auto warm = engine.check(inst.tested, inst.existing);
    ASSERT_TRUE(warm.covered);
    ASSERT_EQ(warm.path, DecisionPath::kRspcProbabilistic);
    ASSERT_TRUE(warm.is_definite);
    ASSERT_EQ(warm.iterations, 0u);
    ASSERT_GT(warm.residue_fragments, 0u);
  }

  AllocationGuard guard;
  for (int i = 0; i < 50; ++i) {
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_TRUE(result.covered);
    ASSERT_TRUE(result.is_definite);
  }
  EXPECT_EQ(guard.count(), 0u);
}

TEST(EngineWorkspace, ExactResidueNoAllocatesOnlyTheWitness) {
  // A 10 %-wide gap the fast paths and MCS are off for: every check ends
  // in the residue stage's witness, whose copy is the one allocation.
  const Subscription s({Interval{0, 100}, Interval{0, 100}});
  const std::vector<Subscription> set{
      Subscription({Interval{-1, 45}, Interval{-1, 101}}, 1),
      Subscription({Interval{55, 101}, Interval{-1, 101}}, 2),
      Subscription({Interval{40, 60}, Interval{60, 101}}, 3)};
  SubsumptionEngine engine(
      EngineConfig{.use_fast_decisions = false, .use_mcs = false}, 9);
  for (int i = 0; i < 3; ++i) {
    const auto warm = engine.check(s, set);
    ASSERT_FALSE(warm.covered);
    ASSERT_EQ(warm.path, DecisionPath::kRspcWitness);
    ASSERT_GT(warm.residue_fragments, 0u);
  }

  constexpr std::size_t kChecks = 50;
  AllocationGuard guard;
  for (std::size_t i = 0; i < kChecks; ++i) {
    const auto result = engine.check(s, set);
    ASSERT_TRUE(result.witness.has_value());
  }
  EXPECT_EQ(guard.count(), kChecks);
}

TEST(EngineWorkspace, PairwiseFastPathDoesNotAllocate) {
  workload::ScenarioConfig config;
  config.attribute_count = 10;
  config.set_size = 80;
  util::Rng rng(11);
  const auto inst = workload::make_pairwise_covering(config, rng);

  SubsumptionEngine engine(EngineConfig{}, 13);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.check(inst.tested, inst.existing).covered);
  }

  AllocationGuard guard;
  for (int i = 0; i < 50; ++i) {
    const auto result = engine.check(inst.tested, inst.existing);
    ASSERT_EQ(result.path, DecisionPath::kPairwiseCover);
  }
  EXPECT_EQ(guard.count(), 0u);
}

TEST(EngineWorkspace, GrowingSetReusesAfterFirstGrowth) {
  // A larger instance after a smaller one may allocate once (growth), but
  // repeating the larger instance must be allocation-free again.
  workload::ScenarioConfig small_config;
  small_config.attribute_count = 8;
  small_config.set_size = 40;
  workload::ScenarioConfig big_config = small_config;
  big_config.set_size = 200;
  util::Rng rng(5);
  const auto small_inst = workload::make_redundant_covering(small_config, rng);
  const auto big_inst = workload::make_redundant_covering(big_config, rng);

  EngineConfig engine_config;
  engine_config.max_iterations = 1'000;
  SubsumptionEngine engine(engine_config, 3);
  (void)engine.check(small_inst.tested, small_inst.existing);
  (void)engine.check(big_inst.tested, big_inst.existing);  // growth
  (void)engine.check(big_inst.tested, big_inst.existing);  // warm

  AllocationGuard guard;
  for (int i = 0; i < 20; ++i) {
    (void)engine.check(big_inst.tested, big_inst.existing);
    (void)engine.check(small_inst.tested, small_inst.existing);
  }
  EXPECT_EQ(guard.count(), 0u);
}

}  // namespace
}  // namespace psc::core
