// Figure 11 — Actual RSPC iterations vs gap size, extreme non-cover.
//
// Paper setup: k = 50, m = 5; s covered entirely except a slice of
// 0.5 %..4.5 % (step 0.5) on one attribute; delta in {1e-3, 1e-6, 1e-10};
// 3000 runs per cell (default here 1000; --runs=3000 for paper-exact).
// The probabilistic core is isolated (fast paths and MCS off) exactly
// because the deterministic aids would answer these instances outright.
//
// Expected shape: average iterations ~ 1/gap-fraction (about 200 at 0.5 %
// down to ~20 at 4.5 %) and nearly IDENTICAL across delta values — the
// discovery time is geometric in the true witness mass, not in delta.
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(1000);
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 11: actual iterations vs gap size (extreme non-cover)",
                     "k=50, m=5; probabilistic core isolated; runs/cell=" +
                         std::to_string(runs));

  bench::TableWriter table(
      {"gap%", "err=1e-3", "err=1e-6", "err=1e-10"}, 5);
  util::Rng rng(args.seed);

  workload::ScenarioConfig config;
  config.attribute_count = 5;
  config.set_size = 50;

  const std::vector<double> deltas{1e-3, 1e-6, 1e-10};
  for (int gap_step = 1; gap_step <= 9; ++gap_step) {
    const double gap = 0.005 * gap_step;
    std::vector<double> means;
    for (const double delta : deltas) {
      core::EngineConfig engine_config;
      engine_config.delta = delta;
      engine_config.max_iterations = 1'000'000;
      engine_config.use_fast_decisions = false;
      engine_config.use_mcs = false;
      engine_config.exact_residue = false;  // the paper's RSPC iterations
      // The paper's integer data model: s spans 40 % of a 1000-wide
      // domain, discretized to unit steps (the bike-rental attributes are
      // ids/sizes/dates — integers).
      engine_config.grid_spacing = 1.0;
      core::SubsumptionEngine engine(engine_config, rng());
      util::RunningStats iterations;
      for (std::int64_t run = 0; run < runs; ++run) {
        const auto inst = workload::make_extreme_non_cover(config, gap, rng);
        iterations.add(static_cast<double>(
            engine.check(inst.tested, inst.existing).iterations));
      }
      means.push_back(iterations.mean());
    }
    table.add_row({gap * 100.0, means[0], means[1], means[2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
