// Figure 6 — Reduction for the redundant covering scenario.
//
// Paper setup: s is covered by the first ~20 % of S (jointly, no pairwise
// cover); the remaining ~80 % overlap s and are redundant. MCS efficiency
// is the fraction of redundant subscriptions it removes, swept over
// k = 10..310 (step 30) for m = 10, 15, 20. delta = 1e-10, 1000 runs/cell
// in the paper (default here: 100, override with --runs=1000).
//
// Expected shape: reduction in the 0.7-1.0 band; dips for small m at mid-k
// and recovers; higher m reduces better at large k.
#include <cmath>

#include "bench_common.hpp"
#include "core/conflict_table.hpp"
#include "core/mcs.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(100);
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 6: redundant-subscription reduction (covering case)",
                     "MCS removal ratio; scenario 1.b; delta=1e-10; runs/cell=" +
                         std::to_string(runs));

  bench::TableWriter table({"k", "m=10", "m=15", "m=20"}, 4);
  util::Rng rng(args.seed);

  for (const std::size_t k : bench::paper_k_sweep()) {
    std::vector<double> means;
    for (const std::size_t m : bench::paper_m_values()) {
      workload::ScenarioConfig config;
      config.attribute_count = m;
      config.set_size = k;
      util::RunningStats reduction;
      for (std::int64_t run = 0; run < runs; ++run) {
        const auto inst = workload::make_redundant_covering(config, rng);
        const core::ConflictTable ct(inst.tested, inst.existing);
        const auto mcs = core::run_mcs(ct);
        // Redundant = everything beyond the covering prefix (~20 %).
        const auto cover_count = static_cast<double>(std::max<std::size_t>(
            2, static_cast<std::size_t>(std::ceil(0.2 * static_cast<double>(k)))));
        const double redundant = static_cast<double>(k) - cover_count;
        const double removed =
            static_cast<double>(k - mcs.kept.size());
        reduction.add(redundant > 0 ? std::min(1.0, removed / redundant) : 1.0);
      }
      means.push_back(reduction.mean());
    }
    table.add_row({static_cast<long long>(k), means[0], means[1], means[2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
