// Figure 8 — Reduction for the non-cover scenario.
//
// Paper setup: the union leaves a slab of s uncovered (scenario 2.b), so
// the WHOLE set is redundant. MCS removal ratio = removed / k, swept over
// k = 10..310 for m = 10, 15, 20.
//
// Expected shape: even better than Figure 6 — ratios >= 0.88 rising
// toward 1.0, because non-covering rows are removed quickly.
#include "bench_common.hpp"
#include "core/conflict_table.hpp"
#include "core/mcs.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(100);
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 8: redundant-subscription reduction (non-cover case)",
                     "MCS removal ratio; scenario 2.b; runs/cell=" +
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
        const auto inst = workload::make_non_cover(config, rng);
        const core::ConflictTable ct(inst.tested, inst.existing);
        const auto mcs = core::run_mcs(ct);
        reduction.add(static_cast<double>(k - mcs.kept.size()) /
                      static_cast<double>(k));
      }
      means.push_back(reduction.mean());
    }
    table.add_row({static_cast<long long>(k), means[0], means[1], means[2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
