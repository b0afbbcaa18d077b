// Figure 12 — False decisions (wrongly answering "covered") vs gap size,
// extreme non-cover scenario.
//
// Same setup as Figure 11. A false decision withholds a non-covered
// subscription — the algorithm's one-sided error. The integer-grid point
// counting (the paper's I(s) model) makes Algorithm 2's rho_w estimate
// optimistic for thin gaps, so the executed d falls short of the exact
// requirement and the false-decision count exceeds runs*delta at the
// smallest gaps — the effect the paper plots.
//
// Expected shape: counts decrease with gap size and with smaller delta;
// zero for delta <= 1e-6 once the gap reaches ~1-2 %.
#include "bench_common.hpp"
#include "baseline/exact_subsumption.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(1000);
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 12: false decisions vs gap size (extreme non-cover)",
                     "k=50, m=5; counts per " + std::to_string(runs) + " runs");

  bench::TableWriter table(
      {"gap%", "err=1e-3", "err=1e-6", "err=1e-10"}, 5);
  util::Rng rng(args.seed);

  workload::ScenarioConfig config;
  config.attribute_count = 5;
  config.set_size = 50;

  const std::vector<double> deltas{1e-3, 1e-6, 1e-10};
  for (int gap_step = 1; gap_step <= 9; ++gap_step) {
    const double gap = 0.005 * gap_step;
    std::vector<long long> counts;
    for (const double delta : deltas) {
      core::EngineConfig engine_config;
      engine_config.delta = delta;
      engine_config.max_iterations = 1'000'000;
      engine_config.use_fast_decisions = false;
      engine_config.use_mcs = false;
      engine_config.exact_residue = false;  // the paper's sampled verdicts
      engine_config.grid_spacing = 1.0;
      core::SubsumptionEngine engine(engine_config, rng());
      long long false_decisions = 0;
      for (std::int64_t run = 0; run < runs; ++run) {
        const auto inst = workload::make_extreme_non_cover(config, gap, rng);
        const auto result = engine.check(inst.tested, inst.existing);
        // Every instance is non-covered by construction; answering
        // "covered" is a false decision. (The exact oracle cross-checks
        // construction on a sample to guard against generator drift.)
        if (result.covered) ++false_decisions;
        if (run % 997 == 0 &&
            baseline::exactly_covered(inst.tested, inst.existing)) {
          std::cerr << "generator drift: instance unexpectedly covered\n";
          return 1;
        }
      }
      counts.push_back(false_decisions);
    }
    table.add_row({gap * 100.0, counts[0], counts[1], counts[2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
