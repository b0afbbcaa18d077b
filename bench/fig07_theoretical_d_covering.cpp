// Figure 7 — Theoretical number of RSPC iterations d (log10) for the
// redundant covering scenario, with and without the MCS reduction.
//
// d is Equation 1's bound computed from Algorithm 2's rho_w estimate,
// once on the full set S and once on the MCS-reduced set S'. delta = 1e-10.
//
// Expected shape: without MCS log10(d) is enormous (tens) and grows with k
// and m; with MCS it collapses (d < 1e5 for k = 100, m = 10; smaller for
// larger m).
#include <cmath>

#include "bench_common.hpp"
#include "core/conflict_table.hpp"
#include "core/mcs.hpp"
#include "core/witness_estimate.hpp"
#include "workload/scenarios.hpp"

namespace {

/// log10 of the Eq. 1 bound; capped for presentation like the paper's plot
/// (rho_w = 0 would be +inf).
double log10_d(const psc::core::ConflictTable& table, double delta) {
  const auto est = psc::core::estimate_witness_probability(table);
  const double d = est.rho_w > 0.0 ? psc::core::theoretical_trials(est.rho_w, delta)
                                   : std::numeric_limits<double>::infinity();
  if (!std::isfinite(d)) return 60.0;  // presentation cap, beyond the plot
  return std::log10(std::max(1.0, d));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = args.runs_or(50);
  const double delta = 1e-10;
  bench::Timer timer;

  bench::print_banner(std::cout,
                     "Figure 7: theoretical log10(d), redundant covering scenario",
                     "Equation 1 bound before/after MCS; delta=1e-10; runs/cell=" +
                         std::to_string(runs));

  bench::TableWriter table({"k", "m=10", "m=15", "m=20", "m=10;MCS", "m=15;MCS",
                           "m=20;MCS"},
                          4);
  util::Rng rng(args.seed);

  for (const std::size_t k : bench::paper_k_sweep()) {
    std::vector<double> full(3, 0.0), reduced(3, 0.0);
    for (std::size_t mi = 0; mi < 3; ++mi) {
      const std::size_t m = bench::paper_m_values()[mi];
      workload::ScenarioConfig config;
      config.attribute_count = m;
      config.set_size = k;
      util::RunningStats full_stats, reduced_stats;
      for (std::int64_t run = 0; run < runs; ++run) {
        const auto inst = workload::make_redundant_covering(config, rng);
        const core::ConflictTable ct(inst.tested, inst.existing);
        full_stats.add(log10_d(ct, delta));
        const auto mcs = core::run_mcs(ct);
        std::vector<core::Subscription> kept;
        kept.reserve(mcs.kept.size());
        for (const std::size_t idx : mcs.kept) kept.push_back(inst.existing[idx]);
        const core::ConflictTable reduced_ct(inst.tested, kept);
        reduced_stats.add(log10_d(reduced_ct, delta));
      }
      full[mi] = full_stats.mean();
      reduced[mi] = reduced_stats.mean();
    }
    table.add_row({static_cast<long long>(k), full[0], full[1], full[2],
                   reduced[0], reduced[1], reduced[2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
