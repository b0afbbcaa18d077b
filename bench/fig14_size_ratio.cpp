// Figure 14 — Ratio of group-coverage to pairwise-coverage active-set size
// over the same comparison stream as Figure 13.
//
// Expected shape: ratio ~0.7-0.8 after 1000 subscriptions, decreasing and
// stabilizing toward 5000; larger (closer to 1) for larger m, with m = 15
// and m = 20 nearly coinciding.
#include "bench_common.hpp"
#include "store/subscription_store.hpp"
#include "util/flags.hpp"
#include "workload/comparison_stream.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const util::Flags flags(argc, argv);
  const auto total_subs = static_cast<std::size_t>(flags.get_int("subs", 2000));
  const std::size_t report_every = std::max<std::size_t>(1, total_subs / 10);
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 14: group/pairwise active-set size ratio",
                     "comparison scenario; delta=1e-6; stream length=" +
                         std::to_string(total_subs));

  bench::TableWriter table({"subs", "m=10", "m=15", "m=20"}, 4);
  const std::size_t checkpoints = total_subs / report_every;
  std::vector<std::vector<double>> ratios(checkpoints);

  for (const std::size_t m : bench::paper_m_values()) {
    workload::ComparisonConfig stream_config;
    stream_config.attribute_count = m;
    stream_config.min_constrained = std::min<std::size_t>(3, m);
    stream_config.max_constrained = std::min<std::size_t>(6, m);

    store::StoreConfig pairwise_config;
    pairwise_config.policy = store::CoveragePolicy::kPairwise;
    store::StoreConfig group_config;
    group_config.policy = store::CoveragePolicy::kGroup;
    group_config.engine.delta = 1e-6;
    group_config.engine.max_iterations = 20'000;
    group_config.engine.exact_residue = false;  // the paper's engine

    store::SubscriptionStore pairwise(pairwise_config, args.seed);
    store::SubscriptionStore group(group_config, args.seed);
    workload::ComparisonStream stream_a(stream_config, args.seed + m);
    workload::ComparisonStream stream_b(stream_config, args.seed + m);

    for (std::size_t i = 1; i <= total_subs; ++i) {
      pairwise.insert(stream_a.next());
      group.insert(stream_b.next());
      if (i % report_every == 0) {
        const double pair_size = static_cast<double>(pairwise.active_count());
        const double group_size = static_cast<double>(group.active_count());
        ratios[i / report_every - 1].push_back(
            pair_size > 0 ? group_size / pair_size : 1.0);
      }
    }
  }

  for (std::size_t c = 0; c < checkpoints; ++c) {
    table.add_row({static_cast<long long>((c + 1) * report_every),
                   ratios[c][0], ratios[c][1], ratios[c][2]});
  }
  bench::finish(table, args, timer);
  return 0;
}
