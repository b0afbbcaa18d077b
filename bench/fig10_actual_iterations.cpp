// Figure 10 — ACTUAL RSPC iterations performed in the non-cover scenario,
// with and without MCS, using the full decision pipeline.
//
// Expected shape: averages far below the theoretical d — under ~5 without
// MCS (the witness gap is sizable, geometric discovery is fast) and under
// ~0.5 with MCS (the reduced set is usually empty, so the probabilistic
// phase rarely runs at all).
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(100);
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 10: actual RSPC iterations, non-cover scenario",
                     "full pipeline; delta=1e-10; runs/cell=" + std::to_string(runs));

  bench::TableWriter table({"k", "m=10", "m=15", "m=20", "m=10;MCS", "m=15;MCS",
                           "m=20;MCS"},
                          4);
  util::Rng rng(args.seed);

  core::EngineConfig with_mcs;
  with_mcs.delta = 1e-10;
  with_mcs.max_iterations = 100'000;
  // The paper's Figure 10 isolates RSPC behaviour: the deterministic
  // Corollary-3 test would answer most instances outright, so it is off.
  with_mcs.use_fast_decisions = false;
  // ...and so is the exact residue stage, which would answer them without
  // a single RSPC iteration.
  with_mcs.exact_residue = false;
  core::EngineConfig without_mcs = with_mcs;
  without_mcs.use_mcs = false;

  for (const std::size_t k : bench::paper_k_sweep()) {
    std::vector<double> plain(3, 0.0), reduced(3, 0.0);
    for (std::size_t mi = 0; mi < 3; ++mi) {
      const std::size_t m = bench::paper_m_values()[mi];
      workload::ScenarioConfig config;
      config.attribute_count = m;
      config.set_size = k;
      util::RunningStats plain_stats, reduced_stats;
      for (std::int64_t run = 0; run < runs; ++run) {
        const auto inst = workload::make_non_cover(config, rng);
        const std::uint64_t seed = rng();
        core::SubsumptionEngine engine_plain(without_mcs, seed);
        core::SubsumptionEngine engine_mcs(with_mcs, seed);
        plain_stats.add(static_cast<double>(
            engine_plain.check(inst.tested, inst.existing).iterations));
        reduced_stats.add(static_cast<double>(
            engine_mcs.check(inst.tested, inst.existing).iterations));
      }
      plain[mi] = plain_stats.mean();
      reduced[mi] = reduced_stats.mean();
    }
    table.add_row({static_cast<long long>(k), plain[0], plain[1], plain[2],
                   reduced[0], reduced[1], reduced[2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
