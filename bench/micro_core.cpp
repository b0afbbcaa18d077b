// Micro-benchmarks (google-benchmark) for the core operations: conflict
// table construction, fast decisions, MCS, witness estimation, RSPC,
// the full engine pipeline, the exact oracle and store insertion. These
// quantify the per-component costs behind the figure harnesses and back the
// complexity claims in docs/ARCHITECTURE.md.
#include <benchmark/benchmark.h>

#include "baseline/exact_subsumption.hpp"
#include "baseline/pairwise_cover.hpp"
#include "core/engine.hpp"
#include "core/fast_decisions.hpp"
#include "core/mcs.hpp"
#include "store/subscription_store.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace psc;

workload::Instance covering_instance(std::size_t m, std::size_t k,
                                     std::uint64_t seed) {
  workload::ScenarioConfig config;
  config.attribute_count = m;
  config.set_size = k;
  util::Rng rng(seed);
  return workload::make_redundant_covering(config, rng);
}

workload::Instance noncover_instance(std::size_t m, std::size_t k,
                                     std::uint64_t seed) {
  workload::ScenarioConfig config;
  config.attribute_count = m;
  config.set_size = k;
  util::Rng rng(seed);
  return workload::make_non_cover(config, rng);
}

void BM_ConflictTableBuild(benchmark::State& state) {
  const auto inst = covering_instance(static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(1)), 1);
  for (auto _ : state) {
    core::ConflictTable table(inst.tested, inst.existing);
    benchmark::DoNotOptimize(table.row_count());
  }
  state.SetComplexityN(state.range(1));
}
BENCHMARK(BM_ConflictTableBuild)
    ->Args({10, 50})->Args({10, 200})->Args({10, 800})
    ->Args({20, 200});

void BM_FastDecisions(benchmark::State& state) {
  const auto inst = noncover_instance(10, static_cast<std::size_t>(state.range(0)), 2);
  const core::ConflictTable table(inst.tested, inst.existing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_fast_decisions(table).decision);
  }
}
BENCHMARK(BM_FastDecisions)->Arg(50)->Arg(200)->Arg(800);

void BM_Mcs(benchmark::State& state) {
  const auto inst = covering_instance(10, static_cast<std::size_t>(state.range(0)), 3);
  const core::ConflictTable table(inst.tested, inst.existing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_mcs(table).kept.size());
  }
}
BENCHMARK(BM_Mcs)->Arg(50)->Arg(200)->Arg(800);

void BM_WitnessEstimate(benchmark::State& state) {
  const auto inst = covering_instance(10, static_cast<std::size_t>(state.range(0)), 4);
  const core::ConflictTable table(inst.tested, inst.existing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimate_witness_probability(table).rho_w);
  }
}
BENCHMARK(BM_WitnessEstimate)->Arg(50)->Arg(200)->Arg(800);

void BM_RspcPerTrialCost(benchmark::State& state) {
  // Covered instance => every trial lands in the union and the whole
  // budget runs; items/s is trials/s. Args: (m, k).
  const auto inst = covering_instance(static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(1)), 5);
  util::Rng rng(6);
  const std::uint64_t trials = 4096;
  for (auto _ : state) {
    const auto result = core::run_rspc(inst.tested, inst.existing, trials, rng);
    benchmark::DoNotOptimize(result.covered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trials));
}
BENCHMARK(BM_RspcPerTrialCost)
    ->ArgsProduct({{2, 4, 10}, {4, 10, 40, 200}});

void BM_EngineCovering(benchmark::State& state) {
  const auto inst = covering_instance(10, static_cast<std::size_t>(state.range(0)), 7);
  core::EngineConfig config;
  config.max_iterations = 10'000;
  core::SubsumptionEngine engine(config, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.check(inst.tested, inst.existing).covered);
  }
}
BENCHMARK(BM_EngineCovering)->Arg(50)->Arg(200)->Arg(800);

void BM_EngineNonCover(benchmark::State& state) {
  const auto inst = noncover_instance(10, static_cast<std::size_t>(state.range(0)), 9);
  core::SubsumptionEngine engine(core::EngineConfig{}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.check(inst.tested, inst.existing).covered);
  }
}
BENCHMARK(BM_EngineNonCover)->Arg(50)->Arg(200)->Arg(800);

void BM_ExactOracle(benchmark::State& state) {
  // Exponential worst case — benchmarked at test-suite scale to document
  // why it is a test oracle, not a production path.
  const auto inst = covering_instance(4, static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::exact_subsumption(inst.tested, inst.existing).covered);
  }
}
BENCHMARK(BM_ExactOracle)->Arg(8)->Arg(16)->Arg(32);

void BM_PairwiseCover(benchmark::State& state) {
  const auto inst = covering_instance(10, static_cast<std::size_t>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::pairwise_covered(inst.tested, inst.existing));
  }
}
BENCHMARK(BM_PairwiseCover)->Arg(50)->Arg(200)->Arg(800);

// Publication matching through the store, flat scan vs IntervalIndex.
// The same wide-schema population is loaded into both configurations; the
// benchmark argument is the active-set size.
void store_match_benchmark(benchmark::State& state, bool use_index) {
  workload::ComparisonConfig config;
  config.attribute_count = 20;
  config.min_constrained = 2;
  config.max_constrained = 6;
  config.width_mean_fraction = 0.15;
  config.width_stddev_fraction = 0.10;
  config.zipf_skew = 0.3;
  workload::ComparisonStream stream(config, 19);
  store::StoreConfig store_config;
  store_config.policy = store::CoveragePolicy::kNone;
  store_config.demote_covered_actives = false;
  store_config.use_index = use_index;
  store::SubscriptionStore store(store_config, 20);
  for (std::int64_t i = 0; i < state.range(0); ++i) store.insert(stream.next());
  util::Rng rng(21);
  std::size_t matched = 0;
  for (auto _ : state) {
    const auto pub =
        workload::uniform_publication(config.attribute_count, 0.0, 1000.0, rng);
    matched += store.match_active(pub).size();
    benchmark::DoNotOptimize(matched);
  }
}

void BM_StoreMatchActiveFlat(benchmark::State& state) {
  store_match_benchmark(state, /*use_index=*/false);
}
BENCHMARK(BM_StoreMatchActiveFlat)->Arg(1000)->Arg(10000);

void BM_StoreMatchActiveIndex(benchmark::State& state) {
  store_match_benchmark(state, /*use_index=*/true);
}
BENCHMARK(BM_StoreMatchActiveIndex)->Arg(1000)->Arg(10000);

// Insertion benchmarks run both candidate-gathering paths: the second
// argument toggles StoreConfig::use_index (0 = flat scans, 1 = index).
void BM_StoreInsertGroup(benchmark::State& state) {
  workload::ComparisonConfig config;
  config.attribute_count = 10;
  for (auto _ : state) {
    state.PauseTiming();
    workload::ComparisonStream stream(config, 15);
    store::StoreConfig store_config;
    store_config.policy = store::CoveragePolicy::kGroup;
    store_config.engine.max_iterations = 5'000;
    store_config.use_index = state.range(1) != 0;
    store::SubscriptionStore store(store_config, 16);
    state.ResumeTiming();
    for (std::int64_t i = 0; i < state.range(0); ++i) store.insert(stream.next());
    benchmark::DoNotOptimize(store.active_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreInsertGroup)
    ->Args({100, 0})->Args({100, 1})
    ->Args({400, 0})->Args({400, 1})
    ->Unit(benchmark::kMillisecond);

void BM_StoreInsertPairwise(benchmark::State& state) {
  workload::ComparisonConfig config;
  config.attribute_count = 10;
  for (auto _ : state) {
    state.PauseTiming();
    workload::ComparisonStream stream(config, 17);
    store::StoreConfig store_config;
    store_config.policy = store::CoveragePolicy::kPairwise;
    store_config.use_index = state.range(1) != 0;
    store::SubscriptionStore store(store_config, 18);
    state.ResumeTiming();
    for (std::int64_t i = 0; i < state.range(0); ++i) store.insert(stream.next());
    benchmark::DoNotOptimize(store.active_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreInsertPairwise)
    ->Args({100, 0})->Args({100, 1})
    ->Args({400, 0})->Args({400, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
