// Shard-scaling harness: throughput of the exec layer's batch APIs as the
// shard count grows, at production-scale active-set sizes.
//
//   part 1 — batch publication matching: ShardedStore::match_active_batch
//            over shards = 1, 2, 4, 8 with a fixed thread pool. Matching
//            work is conserved across shard counts (the harness verifies
//            the match totals agree and exits 1 otherwise), so the speedup
//            column isolates what partitioning + parallel fan-out buy.
//   part 2 — batch insertion: building the same store sharded. This one
//            scales even on a single core: an insert pays an O(k) memmove
//            in its shard's endpoint arrays, and sharding divides k.
//
// The match-throughput acceptance target (>= 3x at 8 shards vs 1 shard at
// 100k actives) needs >= 4 hardware lanes; the harness prints the lane
// count so runs on smaller machines are interpretable. See docs/TUNING.md
// for measured guidance.
//
// Usage: shard_scaling [--runs=N] [--actives=K] [--seed=S] [--csv=PATH]
//   --runs     publications per batch (default 2000)
//   --actives  subscriptions in the store (default 100000)
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/publication.hpp"
#include "exec/sharded_store.hpp"
#include "exec/thread_pool.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace {

using namespace psc;

exec::ShardConfig shard_config(std::size_t shards) {
  exec::ShardConfig config;
  config.shard_count = shards;
  // Coverage-free: every subscription stays active, so all shard counts
  // hold exactly the same k subscriptions and matching is exact.
  config.store.policy = store::CoveragePolicy::kNone;
  config.store.demote_covered_actives = false;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const util::Flags flags(argc, argv);
  const std::size_t publications =
      static_cast<std::size_t>(args.runs_or(2'000));
  const std::size_t actives =
      static_cast<std::size_t>(flags.get_int("actives", 100'000));
  const bench::Timer timer;

  // Same wide-schema workload as bench/index_scaling: 20 attributes, 2-6
  // selective predicates per subscription.
  workload::ComparisonConfig workload_config;
  workload_config.attribute_count = 20;
  workload_config.min_constrained = 2;
  workload_config.max_constrained = 6;
  workload_config.width_mean_fraction = 0.15;
  workload_config.width_stddev_fraction = 0.10;
  workload_config.zipf_skew = 0.3;
  workload_config.center_cluster_scale = 0.35;

  bench::print_banner(std::cout, "shard_scaling",
                     "ShardedStore batch throughput vs shard count");

  exec::ThreadPool pool;  // default: hardware lanes
  std::cout << "thread pool: " << pool.worker_count() << " workers ("
            << pool.lane_count() << " lanes incl. caller); actives=" << actives
            << ", batch=" << publications << " publications\n\n";

  std::vector<core::Subscription> subs;
  subs.reserve(actives);
  {
    workload::ComparisonStream stream(workload_config, args.seed);
    for (std::size_t i = 0; i < actives; ++i) subs.push_back(stream.next());
  }
  std::vector<core::Publication> pubs;
  pubs.reserve(publications);
  {
    util::Rng pub_rng(args.seed + 1);
    for (std::size_t i = 0; i < publications; ++i) {
      pubs.push_back(workload::uniform_publication(
          workload_config.attribute_count, workload_config.domain_lo,
          workload_config.domain_hi, pub_rng));
    }
  }

  bench::TableWriter table({"shards", "build_ms", "match_ms", "kpubs/s",
                           "speedup", "matches"},
                          3);
  double baseline_match_ms = 0.0;
  std::size_t baseline_matches = 0;
  bool mismatch = false;
  for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
    exec::ShardedStore store(shard_config(shards), args.seed);

    bench::Timer build_timer;
    (void)store.insert_batch(subs, &pool);
    const double build_ms = build_timer.elapsed_millis();

    (void)store.match_active_batch(pubs, &pool);  // warm-up pass
    bench::Timer match_timer;
    const auto results = store.match_active_batch(pubs, &pool);
    const double match_ms = match_timer.elapsed_millis();

    std::size_t matches = 0;
    for (const auto& ids : results) matches += ids.size();
    if (shards == 1) {
      baseline_match_ms = match_ms;
      baseline_matches = matches;
    } else if (matches != baseline_matches) {
      std::cerr << "MISMATCH at shards=" << shards << ": " << matches
                << " vs baseline " << baseline_matches << "\n";
      mismatch = true;
    }

    table.add_row({static_cast<long long>(shards), build_ms, match_ms,
                   static_cast<double>(publications) / match_ms,
                   baseline_match_ms / match_ms,
                   static_cast<long long>(matches)});
  }
  std::cout << "batch matching (match_active_batch) and store build:\n";
  bench::finish(table, args, timer);
  return mismatch ? 1 : 0;
}
