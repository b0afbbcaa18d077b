// Ablation — what each stage of the Algorithm-4 pipeline contributes.
//
// Runs the same mixed instance stream through five engine configurations:
//   full         fast decisions + MCS + prefilter + exact residue
//   no-residue   the paper's Algorithm 4 (fast decisions + MCS + prefilter)
//   no-fast      MCS + prefilter + exact residue
//   no-mcs       fast decisions + prefilter + exact residue
//   rspc-only    bare Monte-Carlo
// and reports, per configuration: decision-path distribution, mean RSPC
// iterations, mean candidate-set size at sampling time, wall time, and
// (against the exact oracle) the number of wrong verdicts.
#include <array>
#include <iostream>

#include "baseline/exact_subsumption.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace psc;

struct Variant {
  const char* name;
  core::EngineConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(200);
  bench::Timer total;

  bench::print_banner(std::cout, "Ablation: pipeline stages (fast paths / MCS / prefilter)",
                     "mixed scenario stream; m=6, k=40; instances=" +
                         std::to_string(runs * 4) + " per variant");

  core::EngineConfig base;
  base.delta = 1e-6;
  base.max_iterations = 50'000;

  std::array<Variant, 5> variants{{
      {"full", base},
      {"no-residue", base},
      {"no-fast", base},
      {"no-mcs", base},
      {"rspc-only", base},
  }};
  variants[1].config.exact_residue = false;
  variants[2].config.use_fast_decisions = false;
  variants[3].config.use_mcs = false;
  variants[4].config.use_fast_decisions = false;
  variants[4].config.use_mcs = false;
  variants[4].config.prefilter_intersecting = false;
  variants[4].config.exact_residue = false;

  bench::TableWriter table({"variant", "pairwise", "witness", "mcs-empty",
                           "rspc-no", "rspc-yes", "avg-iters", "avg-cands",
                           "wrong", "ms"},
                          4);

  workload::ScenarioConfig config;
  config.attribute_count = 6;
  config.set_size = 40;

  for (const auto& variant : variants) {
    util::Rng rng(args.seed);  // identical stream per variant
    core::SubsumptionEngine engine(variant.config, args.seed);
    std::array<long long, 6> paths{};
    util::RunningStats iters, cands;
    long long wrong = 0;
    bench::Timer timer;
    for (std::int64_t run = 0; run < runs; ++run) {
      for (int family = 0; family < 4; ++family) {
        workload::Instance inst;
        switch (family) {
          case 0: inst = workload::make_pairwise_covering(config, rng); break;
          case 1: inst = workload::make_redundant_covering(config, rng); break;
          case 2: inst = workload::make_non_cover(config, rng); break;
          default:
            inst = workload::make_extreme_non_cover(config, 0.05, rng);
        }
        const auto result = engine.check(inst.tested, inst.existing);
        ++paths[static_cast<std::size_t>(result.path)];
        iters.add(static_cast<double>(result.iterations));
        cands.add(static_cast<double>(result.reduced_set_size));
        if (result.covered != inst.expected_covered) ++wrong;
      }
    }
    const double ms = timer.elapsed_millis();
    table.add_row({std::string(variant.name),
                   paths[1],          // kPairwiseCover
                   paths[2],          // kPolyhedronWitness
                   paths[3],          // kMcsEmpty
                   paths[4],          // kRspcWitness
                   paths[5],          // kRspcProbabilistic
                   iters.mean(), cands.mean(), wrong, ms});
  }
  bench::finish(table, args, total);
  return 0;
}
