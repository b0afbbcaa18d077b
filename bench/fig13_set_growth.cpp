// Figure 13 — Active subscription-set growth: pair-wise vs group coverage.
//
// Paper setup: one stream of 5000 subscriptions per m in {10, 15, 20},
// generated with the popularity model (Zipf 2.0 attributes, Pareto 1.0
// centers, normal widths); delta = 1e-6. Each incoming subscription is
// checked against the current active set under (a) pairwise coverage and
// (b) group coverage via the probabilistic engine; covered subscriptions
// are not added to the active set.
//
// Expected shape: group << pairwise for every m; after 5000 subscriptions
// the active set is ~10 % of the stream for m = 10/15 (pairwise ~15 %) and
// ~33 % for m = 20 (pairwise ~50 %); absolute sizes grow with m.
//
// Default stream length is 2000 for a quick run; --subs=5000 reproduces
// the paper's axis. (Runtime is dominated by the group checks.)
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

  bench::print_banner(std::cout, "Figure 13: active-set growth, pairwise vs group coverage",
                     "comparison scenario; delta=1e-6; stream length=" +
                         std::to_string(total_subs));

  std::vector<std::string> headers{"subs"};
  for (const std::size_t m : bench::paper_m_values()) {
    headers.push_back("m=" + std::to_string(m) + ",pair");
    headers.push_back("m=" + std::to_string(m) + ",group");
  }
  bench::TableWriter table(std::move(headers));

  // One pass per m: feed identical streams into both stores and sample the
  // active-set size every report_every subscriptions.
  std::vector<std::vector<long long>> series;  // [checkpoint][column]
  const std::size_t checkpoints = total_subs / report_every;
  series.assign(checkpoints, {});

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
        auto& row = series[i / report_every - 1];
        row.push_back(static_cast<long long>(pairwise.active_count()));
        row.push_back(static_cast<long long>(group.active_count()));
      }
    }
    std::cout << "m=" << m << " done after " << timer.elapsed_seconds()
              << " s (group checks: " << group.group_checks() << ")\n";
  }

  for (std::size_t c = 0; c < checkpoints; ++c) {
    std::vector<bench::Cell> row{
        static_cast<long long>((c + 1) * report_every)};
    for (const long long v : series[c]) row.push_back(v);
    table.add_row(std::move(row));
  }
  bench::finish(table, args, timer);
  return 0;
}
