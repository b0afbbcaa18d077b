// Property-based sweeps validating the probabilistic engine against the
// exact box-subtraction oracle over randomized instances, parameterized
// over dimensions, set sizes and scenario families.
//
// Invariants under test (paper, Proposition 1 and Section 4):
//   P0. A definite YES from the engine is always correct.
//   P1. A definite NO from the engine is always correct.
//   P2. A covered instance is NEVER answered NO (no false positives in the
//       non-cover direction — the algorithm's one-sided error).
//   P3. MCS never changes the verdict, only the work.
//   P4. The fast paths agree with the oracle whenever they fire.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "baseline/exact_subsumption.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

namespace psc {
namespace {

using core::DecisionPath;
using core::EngineConfig;
using core::SubsumptionEngine;
using workload::Instance;
using workload::ScenarioConfig;

enum class Family { kPairwise, kRedundant, kDisjoint, kNonCover, kExtreme };

const char* family_name(Family family) {
  switch (family) {
    case Family::kPairwise: return "pairwise";
    case Family::kRedundant: return "redundant";
    case Family::kDisjoint: return "disjoint";
    case Family::kNonCover: return "noncover";
    case Family::kExtreme: return "extreme";
  }
  return "?";
}

Instance generate(Family family, const ScenarioConfig& config, util::Rng& rng) {
  switch (family) {
    case Family::kPairwise: return workload::make_pairwise_covering(config, rng);
    case Family::kRedundant: return workload::make_redundant_covering(config, rng);
    case Family::kDisjoint: return workload::make_no_intersection(config, rng);
    case Family::kNonCover: return workload::make_non_cover(config, rng);
    case Family::kExtreme:
      return workload::make_extreme_non_cover(config, 0.03, rng);
  }
  throw std::logic_error("unreachable");
}

struct SweepParam {
  Family family;
  std::size_t m;
  std::size_t k;
};

class EngineOracleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineOracleSweep, EngineAgreesWithExactOracle) {
  const SweepParam param = GetParam();
  ScenarioConfig config;
  config.attribute_count = param.m;
  config.set_size = param.k;

  util::Rng rng(0xabc000 + param.m * 131 + param.k * 7 +
                static_cast<std::uint64_t>(param.family));
  EngineConfig engine_config;
  engine_config.delta = 1e-9;
  engine_config.max_iterations = 200'000;
  SubsumptionEngine engine(engine_config, rng());

  const int rounds = 15;
  for (int round = 0; round < rounds; ++round) {
    const Instance inst = generate(param.family, config, rng);
    const bool truth = baseline::exactly_covered(inst.tested, inst.existing);
    // The generators' own ground-truth labels must match the oracle.
    EXPECT_EQ(truth, inst.expected_covered)
        << family_name(param.family) << " round " << round;

    const auto result = engine.check(inst.tested, inst.existing);

    if (result.covered && result.is_definite) {
      // P0: a definite YES (pairwise cover or exact residue) is correct.
      EXPECT_TRUE(truth) << family_name(param.family) << " round " << round
                         << " path=" << to_string(result.path);
    }
    if (!result.covered) {
      // P1: definite NO must be genuinely uncovered.
      EXPECT_FALSE(truth) << family_name(param.family) << " round " << round
                          << " path=" << to_string(result.path);
    }
    if (truth) {
      // P2: covered instances are never answered NO.
      EXPECT_TRUE(result.covered)
          << family_name(param.family) << " round " << round;
    }
    // For uncovered instances with delta = 1e-9 and generous budget the
    // engine essentially always finds the witness; tolerate the bounded
    // error rather than flake: count misses instead of asserting each.
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, EngineOracleSweep,
    ::testing::Values(
        SweepParam{Family::kPairwise, 2, 6}, SweepParam{Family::kPairwise, 4, 16},
        SweepParam{Family::kPairwise, 6, 24},
        SweepParam{Family::kRedundant, 2, 8},
        SweepParam{Family::kRedundant, 3, 12},
        SweepParam{Family::kRedundant, 5, 20},
        SweepParam{Family::kDisjoint, 2, 8}, SweepParam{Family::kDisjoint, 4, 20},
        SweepParam{Family::kNonCover, 2, 8}, SweepParam{Family::kNonCover, 3, 12},
        SweepParam{Family::kNonCover, 5, 24},
        SweepParam{Family::kExtreme, 3, 16}, SweepParam{Family::kExtreme, 5, 30}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(family_name(info.param.family)) + "_m" +
             std::to_string(info.param.m) + "_k" + std::to_string(info.param.k);
    });

class McsInvarianceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(McsInvarianceSweep, McsNeverChangesTheVerdict) {
  const SweepParam param = GetParam();
  ScenarioConfig config;
  config.attribute_count = param.m;
  config.set_size = param.k;
  util::Rng rng(0xdef000 + param.m * 13 + param.k);

  EngineConfig with_mcs, without_mcs;
  with_mcs.delta = without_mcs.delta = 1e-9;
  with_mcs.max_iterations = without_mcs.max_iterations = 200'000;
  without_mcs.use_mcs = false;

  for (int round = 0; round < 10; ++round) {
    const Instance inst = generate(param.family, config, rng);
    // Fresh engines with the same seed so RNG streams match per round.
    const std::uint64_t seed = rng();
    SubsumptionEngine a(with_mcs, seed), b(without_mcs, seed);
    const auto ra = a.check(inst.tested, inst.existing);
    const auto rb = b.check(inst.tested, inst.existing);
    // P3: the verdict is invariant; only effort may differ. (Both sides
    // retain the one-sided error, but with delta=1e-9 and the generators'
    // sizable witnesses a disagreement would signal a logic bug, not luck.)
    EXPECT_EQ(ra.covered, rb.covered)
        << family_name(param.family) << " round " << round;
    // MCS cannot *increase* the candidate set.
    EXPECT_LE(ra.reduced_set_size, rb.reduced_set_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, McsInvarianceSweep,
    ::testing::Values(SweepParam{Family::kPairwise, 3, 10},
                      SweepParam{Family::kRedundant, 3, 10},
                      SweepParam{Family::kRedundant, 4, 20},
                      SweepParam{Family::kDisjoint, 3, 10},
                      SweepParam{Family::kNonCover, 3, 10},
                      SweepParam{Family::kExtreme, 4, 20}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(family_name(info.param.family)) + "_m" +
             std::to_string(info.param.m) + "_k" + std::to_string(info.param.k);
    });

TEST(PropertyFastPaths, FastDecisionsAgreeWithOracleWhenTheyFire) {
  util::Rng rng(0x777);
  ScenarioConfig config;
  config.attribute_count = 3;
  config.set_size = 10;
  EngineConfig engine_config;  // fast paths enabled
  SubsumptionEngine engine(engine_config, 42);

  int pairwise_fires = 0, witness_fires = 0;
  for (int round = 0; round < 120; ++round) {
    const Family family = static_cast<Family>(round % 5);
    const Instance inst = generate(family, config, rng);
    const auto result = engine.check(inst.tested, inst.existing);
    const bool truth = baseline::exactly_covered(inst.tested, inst.existing);
    if (result.path == DecisionPath::kPairwiseCover) {
      ++pairwise_fires;
      EXPECT_TRUE(truth);
    }
    if (result.path == DecisionPath::kPolyhedronWitness ||
        result.path == DecisionPath::kMcsEmpty) {
      ++witness_fires;
      EXPECT_FALSE(truth);
    }
  }
  // The sweep must actually exercise both fast paths.
  EXPECT_GT(pairwise_fires, 0);
  EXPECT_GT(witness_fires, 0);
}

TEST(PropertyErrorBound, FalseNegativeRateWithinDelta) {
  // Run many uncovered instances at a loose delta and check the empirical
  // false-YES rate stays within a small multiple of the configured bound.
  // (Algorithm 2's estimate can be optimistic by design — the paper's
  // Fig. 12 shows the same effect — so we allow 10x headroom.)
  util::Rng rng(0x51515);
  ScenarioConfig config;
  config.attribute_count = 4;
  config.set_size = 20;
  EngineConfig engine_config;
  engine_config.delta = 1e-3;
  engine_config.max_iterations = 100'000;
  engine_config.use_fast_decisions = false;  // force the probabilistic path
  engine_config.use_mcs = false;
  engine_config.exact_residue = false;
  SubsumptionEngine engine(engine_config, 7);

  const int rounds = 400;
  int false_yes = 0;
  for (int round = 0; round < rounds; ++round) {
    const Instance inst = workload::make_extreme_non_cover(config, 0.03, rng);
    const auto result = engine.check(inst.tested, inst.existing);
    if (result.covered) ++false_yes;
  }
  EXPECT_LE(false_yes, 40) << "false-YES rate grossly above delta";
}

TEST(PropertyResidue, ExactResidueMatchesOracle) {
  // Differential sweep of the exact residue stage against box subtraction:
  // m = 1..6, k up to 60, covering, non-cover, 0.1 %-gap and random
  // candidate sets, with every other stage off so each query reaches it.
  // Every verdict the stage gives must be the oracle's, with a valid
  // witness on a NO; the sweep must also see it decide both ways.
  util::Rng rng(0x4e51d);
  EngineConfig engine_config;
  engine_config.use_fast_decisions = false;
  engine_config.use_mcs = false;
  SubsumptionEngine engine(engine_config, 11);
  int decided_yes = 0;
  int decided_no = 0;
  for (std::size_t m = 1; m <= 6; ++m) {
    for (const std::size_t k : {1, 5, 20, 60}) {
      ScenarioConfig config;
      config.attribute_count = m;
      config.set_size = k;
      for (int round = 0; round < 40; ++round) {
        Instance inst;
        switch (round % 4) {
          case 0: inst = workload::make_redundant_covering(config, rng); break;
          case 1: inst = workload::make_non_cover(config, rng); break;
          case 2:
            inst = workload::make_extreme_non_cover(config, 0.001, rng);
            break;
          default:
            inst.tested = workload::random_box(config, 0.2, 0.5, rng);
            for (std::size_t i = 0; i < k; ++i) {
              inst.existing.push_back(workload::random_box(config, 0.1, 0.6, rng));
              inst.existing.back().set_id(i + 1);
            }
        }
        const auto result = engine.check(inst.tested, inst.existing);
        if (result.residue_fragments == 0) continue;
        const bool truth = baseline::exactly_covered(inst.tested, inst.existing);
        ASSERT_EQ(result.covered, truth) << "m=" << m << " k=" << k
                                         << " round " << round;
        ASSERT_TRUE(result.is_definite);
        ASSERT_EQ(result.iterations, 0u);
        if (truth) {
          ++decided_yes;
        } else {
          ++decided_no;
          ASSERT_TRUE(result.witness.has_value());
          EXPECT_TRUE(inst.tested.contains_point(*result.witness));
          EXPECT_FALSE(core::point_in_union(*result.witness, inst.existing));
        }
      }
    }
  }
  EXPECT_GT(decided_yes, 100);
  EXPECT_GT(decided_no, 100);
}

TEST(PropertyWitness, EveryReportedWitnessIsValid) {
  util::Rng rng(0x9191);
  ScenarioConfig config;
  config.attribute_count = 3;
  config.set_size = 12;
  EngineConfig engine_config;
  engine_config.use_fast_decisions = false;
  engine_config.use_mcs = false;
  SubsumptionEngine engine(engine_config, 3);
  for (int round = 0; round < 60; ++round) {
    const Instance inst = workload::make_non_cover(config, rng);
    const auto result = engine.check(inst.tested, inst.existing);
    if (result.witness) {
      EXPECT_TRUE(inst.tested.contains_point(*result.witness));
      for (const auto& si : inst.existing) {
        EXPECT_FALSE(si.contains_point(*result.witness));
      }
    }
  }
}

}  // namespace
}  // namespace psc
