// perf_gate — the repo's persistent performance trajectory, in one binary.
//
// Measures ops/sec and p50/p99 latency for the hot paths every PR is
// judged against, emits machine-readable BENCH_core.json, and GATES on
// correctness while doing so: every timed section cross-checks its results
// against a flat-scan oracle, the vectorized and scalar index paths must
// produce identical result checksums in the same run, and the
// five-topology churn soak runs with the differential network oracle on.
// Any divergence exits non-zero (the CI perf-smoke job relies on this).
//
//   ./perf_gate [--small] [--json=BENCH_core.json]
//               [--actives=100000,1000000] [--attrs=4] [--queries=N]
//               [--churn-ops=N] [--seed=2006] [--soak-duration=20]
//
// --actives is a comma-separated list of SCALE TIERS. The first tier is
// the primary one and runs every section below; later tiers (the 1M-active
// tier in the default full run) re-measure the index-bound sections only —
// stab, box_intersect, insert_erase_churn_amortized — and are recorded as
// separate "scales" blocks in the JSON so scripts/check_bench.py can gate
// each tier independently.
//
// Sections (see docs/PERFORMANCE.md for the methodology):
//   * stab           — point-stab on the interval index at tier size
//   * box_intersect  — box-intersect on the same index
//   * insert_erase_churn — mutation-heavy steady state (erase+insert per
//     op) on BOTH the churn-amortized tiered index and the eager pre-tier
//     ablation (IndexConfig::amortize_mutations = false); the ratio is the
//     PR 4 headline speedup and is gated >= 3x in full runs (primary tier
//     only: eager at 1M actives would take hours by construction)
//   * broker_publish — Broker::handle_publication through PublishScratch
//     (the zero-allocation publish path over the broker's publish lanes)
//     against a routed table
//   * broker_publish_pipelined — the same routed table through the staged
//     PublishPipeline. Both publish sections are gated decision-identical
//     to a flat scan over the routed (subscription, origin) pairs in-run;
//     their throughput floors live in scripts/check_bench.py. Latency
//     samples are per pipeline chunk (--pipeline-chunk publications
//     each), not per publication.
//     Knobs: --pipeline-workers=-1 (auto) --pipeline-batch=16
//     --pipeline-depth=4 --pipeline-chunk=256 (see docs/TUNING.md)
//   * engine_rspc    — SubsumptionEngine::check on fixed probabilistic-YES
//     instances (workload::make_redundant_covering at m = 2, 4, 10, k = 40;
//     the same in --small runs) with delta = 1e-300, which stretches each
//     check to ~50x the default trial budget so the RSPC trial loop
//     dominates it, with the exact residue stage off; also records
//     trials_per_sec
//   * engine_residue — the same instances and budget with the exact residue
//     stage on (every check an exact YES); recording only, never gated:
//     records checks/sec, p50/p99 and fragment visits per check
//   * churn_soak     — sim::ChurnDriver over the five standard topologies
//     with the differential oracle on (ops/sec per topology); runs with
//     the --pipeline-* sizing + publish coalescing, so the soak
//     differentially exercises the staged path under churn
//
// --small shrinks every size for the CI smoke / ctest registration; small
// runs still gate on correctness (oracles + checksums) but skip the
// speedup threshold (tiny sizes are all noise).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "index/interval_index.hpp"
#include "routing/broker.hpp"
#include "routing/publish_pipeline.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/simd.hpp"
#include "workload/churn_workload.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace psc;
using bench::SectionResult;
using bench::time_section;
using bench::write_section;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct GateState {
  std::uint64_t divergences = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++divergences;
      std::cerr << "ORACLE DIVERGENCE: " << what << "\n";
    }
  }
};

/// One scale tier's measurements: the index-bound sections plus the
/// order-independent result checksums of the vectorized and scalar paths
/// over the same sampled queries (gated equal — the in-run ablation
/// oracle, and a dead-code-elimination defeat for the SIMD sweeps).
struct ScaleResult {
  std::size_t actives = 0;
  std::uint64_t queries = 0;
  std::uint64_t churn_ops = 0;
  SectionResult stab;
  SectionResult box;
  SectionResult churn_amortized;
  std::uint64_t checksum_simd = 0;
  std::uint64_t checksum_scalar = 0;
};

std::vector<std::size_t> parse_actives_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string item = csv.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(static_cast<std::size_t>(std::stoull(item)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool small = flags.get_bool("small", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2006));
  const std::vector<std::size_t> actives_tiers = parse_actives_list(
      flags.get_string("actives", small ? "2000,6000" : "100000,1000000"));
  const auto attrs =
      static_cast<std::size_t>(flags.get_int("attrs", 4));
  const auto queries = static_cast<std::uint64_t>(
      flags.get_int("queries", small ? 2'000 : 20'000));
  const auto churn_ops = static_cast<std::uint64_t>(
      flags.get_int("churn-ops", small ? 2'000 : 20'000));
  const double soak_duration = flags.get_double("soak-duration", small ? 5.0 : 20.0);
  const std::string json_path = flags.get_string("json", "BENCH_core.json");
  if (actives_tiers.empty()) {
    std::cerr << "--actives needs at least one tier\n";
    return 1;
  }
  const std::size_t actives = actives_tiers.front();  // primary tier

  bench::print_banner(std::cout, "perf_gate",
                     "hot-path throughput/latency trajectory + oracle gates");
  std::cout << "simd backend: " << simd::backend_name() << "\n\n";

  GateState gate;
  std::uint64_t sink = 0;
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = attrs;
  stream_config.max_constrained = std::min<std::size_t>(attrs, 3);

  // ---------------------------------------------------------------------
  // Churn section runner (own fixture: the mutation mix must not disturb
  // the query fixtures). Oracle: exact stab equality against a flat scan
  // over the mirrored live set after the full run — catches both ghost ids
  // and silently dropped matches.
  const auto run_churn = [&](index::IndexConfig config, std::size_t fixture,
                             std::uint64_t ops, const std::string& label,
                             const std::vector<Publication>& oracle_probes) {
    workload::ComparisonStream churn_stream(stream_config, seed);
    index::IntervalIndex index(attrs, config);
    std::vector<Subscription> live_subs;
    live_subs.reserve(fixture);
    for (std::size_t i = 0; i < fixture; ++i) {
      Subscription sub = churn_stream.next();
      index.insert(sub);
      live_subs.push_back(std::move(sub));
    }
    std::vector<Subscription> incoming;
    incoming.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) incoming.push_back(churn_stream.next());
    util::Rng churn_rng(seed ^ 0x5eedULL);
    SectionResult result = time_section(label, ops, [&](std::uint64_t i) {
      const std::size_t victim = churn_rng.next_below(live_subs.size());
      index.erase(live_subs[victim].id());
      index.insert(incoming[i]);
      live_subs[victim] = incoming[i];
    });
    gate.check(index.size() == live_subs.size(), label + ": size drift");
    const std::uint64_t probe_count = oracle_probes.size();
    for (std::uint64_t p = 0; p < probe_count;
         p += std::max<std::uint64_t>(probe_count / 8, 1)) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live_subs) {
        if (oracle_probes[p].matches(sub)) expected.push_back(sub.id());
      }
      gate.check(sorted(index.stab(oracle_probes[p].values())) == sorted(expected),
                 label + ": post-churn stab drift at probe " + std::to_string(p));
    }
    return result;
  };

  // ---------------------------------------------------------------------
  // One scale tier: query fixture at `tier_actives` mirrored in a flat
  // vector (the oracle), the production index, and a scalar-path twin
  // (IndexConfig::use_simd = false) for the in-run checksum ablation.
  const auto run_scale = [&](std::size_t tier_actives) {
    ScaleResult scale;
    scale.actives = tier_actives;
    scale.queries = queries;
    scale.churn_ops = churn_ops;
    const std::string suffix = " @" + std::to_string(tier_actives);

    workload::ComparisonStream stream(stream_config, seed);
    std::vector<Subscription> live;
    live.reserve(tier_actives);
    index::IntervalIndex tiered(attrs);
    index::IndexConfig scalar_config;
    scalar_config.use_simd = false;
    index::IntervalIndex scalar_twin(attrs, scalar_config);
    for (std::size_t i = 0; i < tier_actives; ++i) {
      Subscription sub = stream.next();
      tiered.insert(sub);
      scalar_twin.insert(sub);
      live.push_back(std::move(sub));
    }

    std::uint64_t probe_seed = seed;
    util::Rng probe_rng(util::splitmix64(probe_seed));
    std::vector<Publication> probes;
    probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      probes.push_back(workload::uniform_publication(attrs, 0.0, 1000.0, probe_rng));
    }
    workload::ScenarioConfig box_config;
    box_config.attribute_count = attrs;
    std::vector<Subscription> box_probes;
    box_probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      box_probes.push_back(workload::random_box(box_config, 0.02, 0.2, probe_rng));
    }

    // --- stab ----------------------------------------------------------
    std::vector<SubscriptionId> out;
    scale.stab = time_section("stab", queries, [&](std::uint64_t i) {
      out.clear();
      tiered.stab(probes[i].values(), out);
      sink += out.size();
    });
    for (std::uint64_t i = 0; i < queries;
         i += std::max<std::uint64_t>(queries / 16, 1)) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live) {
        if (probes[i].matches(sub)) expected.push_back(sub.id());
      }
      gate.check(sorted(tiered.stab(probes[i].values())) == sorted(expected),
                 "stab probe " + std::to_string(i) + suffix);
    }

    // --- box_intersect -------------------------------------------------
    scale.box = time_section("box_intersect", queries, [&](std::uint64_t i) {
      out.clear();
      tiered.box_intersect(box_probes[i], out);
      sink += out.size();
    });
    for (std::uint64_t i = 0; i < queries;
         i += std::max<std::uint64_t>(queries / 16, 1)) {
      std::vector<SubscriptionId> expected;
      for (const Subscription& sub : live) {
        if (sub.intersects(box_probes[i])) expected.push_back(sub.id());
      }
      gate.check(sorted(tiered.box_intersect(box_probes[i])) == sorted(expected),
                 "box_intersect probe " + std::to_string(i) + suffix);
    }

    // --- scalar/SIMD checksum ablation ---------------------------------
    // Sampled queries run on both the production index and the scalar
    // twin; the id-sum fold is order-independent, so equal checksums pin
    // identical RESULT SETS without sorting. This is also the fold that
    // keeps the compiler from dead-code-eliminating either sweep.
    for (std::uint64_t i = 0; i < queries;
         i += std::max<std::uint64_t>(queries / 64, 1)) {
      for (const auto* index : {&tiered, &scalar_twin}) {
        auto& checksum =
            index == &tiered ? scale.checksum_simd : scale.checksum_scalar;
        out.clear();
        index->stab(probes[i].values(), out);
        for (const SubscriptionId id : out) checksum += id;
        out.clear();
        index->box_intersect(box_probes[i], out);
        for (const SubscriptionId id : out) checksum += id;
      }
    }
    gate.check(scale.checksum_simd == scale.checksum_scalar,
               "scalar/SIMD checksum mismatch" + suffix);
    sink += scale.checksum_simd;

    // --- churn (amortized only; the eager ablation runs at the primary
    // tier, where its quadratic fixture build is still tractable) --------
    scale.churn_amortized =
        run_churn(index::IndexConfig{}, tier_actives, churn_ops,
                  "insert_erase_churn_amortized", probes);
    return scale;
  };

  std::vector<ScaleResult> scales;
  scales.reserve(actives_tiers.size());
  for (const std::size_t tier : actives_tiers) {
    scales.push_back(run_scale(tier));
  }
  const ScaleResult& primary = scales.front();

  // --- Section: insert_erase_churn_eager (primary tier, full ablation) --
  // The eager path is orders of magnitude slower at 100k actives; cap its
  // op count so the baseline measurement stays tractable.
  std::vector<Publication> primary_probes;
  {
    std::uint64_t probe_seed = seed;
    util::Rng probe_rng(util::splitmix64(probe_seed));
    primary_probes.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) {
      primary_probes.push_back(
          workload::uniform_publication(attrs, 0.0, 1000.0, probe_rng));
    }
  }
  index::IndexConfig eager_config;
  eager_config.amortize_mutations = false;
  const std::uint64_t eager_ops = std::min<std::uint64_t>(
      churn_ops, small ? churn_ops : 4'000);
  const SectionResult churn_eager =
      run_churn(eager_config, actives, eager_ops, "insert_erase_churn_eager",
                primary_probes);
  const SectionResult& churn_amortized = primary.churn_amortized;
  const double speedup = churn_eager.ops_per_sec > 0
                             ? churn_amortized.ops_per_sec / churn_eager.ops_per_sec
                             : 0.0;

  // Deep equivalence check between the two mutation modes on a smaller
  // churned instance: identical stab/box results op for op.
  {
    const std::size_t n = small ? 300 : 2'000;
    workload::ComparisonStream a_stream(stream_config, seed + 1);
    workload::ComparisonStream b_stream(stream_config, seed + 1);
    index::IntervalIndex amortized(attrs);
    index::IntervalIndex eager(attrs, eager_config);
    std::vector<SubscriptionId> ids;
    util::Rng rng(seed + 2);
    for (std::size_t i = 0; i < n; ++i) {
      if (!ids.empty() && rng.bernoulli(0.4)) {
        const std::size_t victim = rng.next_below(ids.size());
        amortized.erase(ids[victim]);
        eager.erase(ids[victim]);
        ids[victim] = ids.back();
        ids.pop_back();
      } else {
        const Subscription sub = a_stream.next();
        (void)b_stream.next();
        amortized.insert(sub);
        eager.insert(sub);
        ids.push_back(sub.id());
      }
      const Publication probe =
          workload::uniform_publication(attrs, 0.0, 1000.0, rng);
      gate.check(sorted(amortized.stab(probe.values())) ==
                     sorted(eager.stab(probe.values())),
                 "amortized/eager stab drift at op " + std::to_string(i));
    }
  }

  // --- Section: engine_rspc ---------------------------------------------
  // Full Algorithm 4 checks whose verdict is a probabilistic YES: the
  // union covers s, so every check runs all of its trial budget. At the
  // default delta the conflict table and MCS would outweigh the few
  // hundred trials these instances get; delta = 1e-300 multiplies the
  // Eq. 1 budget by ln(1e-300) / ln(1e-6) = 50. The exact residue stage is
  // off: it would answer these instances without a trial. The instances do
  // not depend on --small or the tier sizes.
  std::vector<workload::Instance> engine_instances;
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}, std::size_t{10}}) {
    workload::ScenarioConfig config;
    config.attribute_count = m;
    config.set_size = 40;
    util::Rng instance_rng(seed + m);
    engine_instances.push_back(
        workload::make_redundant_covering(config, instance_rng));
  }
  std::uint64_t engine_trials = 0;
  const SectionResult engine_rspc = [&] {
    core::SubsumptionEngine engine(
        core::EngineConfig{.delta = 1e-300, .exact_residue = false}, seed);
    constexpr std::uint64_t kChecksPerInstance = 200;
    return time_section(
        "engine_rspc", kChecksPerInstance * engine_instances.size(),
        [&](std::uint64_t i) {
          const workload::Instance& inst =
              engine_instances[i % engine_instances.size()];
          const auto result = engine.check(inst.tested, inst.existing);
          gate.check(result.path == core::DecisionPath::kRspcProbabilistic &&
                         !result.is_definite,
                     "engine_rspc: instance " +
                         std::to_string(i % engine_instances.size()) +
                         " answered " + std::string(core::to_string(result.path)));
          engine_trials += result.iterations;
        });
  }();
  const double engine_trials_per_sec = static_cast<double>(engine_trials) *
                                       engine_rspc.ops_per_sec /
                                       static_cast<double>(engine_rspc.ops);

  // --- Section: engine_residue (recording only) --------------------------
  // The same instances and budget with the exact residue stage on: each
  // check is an exact YES decided by box subtraction instead of d trials.
  std::uint64_t residue_fragments = 0;
  const SectionResult engine_residue = [&] {
    core::SubsumptionEngine engine(core::EngineConfig{.delta = 1e-300}, seed);
    constexpr std::uint64_t kChecksPerInstance = 1000;
    return time_section(
        "engine_residue", kChecksPerInstance * engine_instances.size(),
        [&](std::uint64_t i) {
          const workload::Instance& inst =
              engine_instances[i % engine_instances.size()];
          const auto result = engine.check(inst.tested, inst.existing);
          gate.check(result.covered && result.is_definite &&
                         result.residue_fragments > 0,
                     "engine_residue: instance " +
                         std::to_string(i % engine_instances.size()) +
                         " was not an exact YES");
          residue_fragments += result.residue_fragments;
        });
  }();
  const double fragments_per_check = static_cast<double>(residue_fragments) /
                                     static_cast<double>(engine_residue.ops);

  // --- Section: broker_publish ------------------------------------------
  // One broker, two links, `actives` routed subscriptions from a mix of
  // local and neighbour origins; the zero-allocation scratch publish path.
  store::StoreConfig broker_store;
  routing::Broker broker(0, broker_store, seed);
  broker.add_neighbor(1);
  broker.add_neighbor(2);
  // The oracle's copy of the routed (subscription, origin) pairs, in
  // ascending id order (the stream numbers ids consecutively).
  std::vector<std::pair<Subscription, routing::Origin>> routed;
  routed.reserve(actives);
  {
    workload::ComparisonStream route_stream(stream_config, seed + 3);
    util::Rng origin_rng(seed + 4);
    for (std::size_t i = 0; i < actives; ++i) {
      routing::Origin origin{true, routing::kInvalidBroker};
      const auto draw = origin_rng.next_below(3);
      if (draw == 1) origin = routing::Origin{false, 1};
      if (draw == 2) origin = routing::Origin{false, 2};
      routed.emplace_back(route_stream.next(), origin);
      (void)broker.handle_subscription(routed.back().first, origin);
    }
  }
  // Flat-scan route oracle: local-origin matches are the local deliveries;
  // other neighbours, minus the publication's origin, are destinations in
  // first-match order.
  const auto oracle_route = [&](const Publication& pub,
                                const routing::Origin& origin) {
    routing::Broker::PublicationRoute route;
    for (const auto& [sub, from] : routed) {
      if (!pub.matches(sub)) continue;
      if (from.local) {
        route.local_matches.push_back(sub.id());
      } else if ((origin.local || from.neighbor != origin.neighbor) &&
                 std::find(route.destinations.begin(), route.destinations.end(),
                           from.neighbor) == route.destinations.end()) {
        route.destinations.push_back(from.neighbor);
      }
    }
    return route;
  };
  routing::Broker::PublishScratch scratch;
  const routing::Origin publish_origin{true, routing::kInvalidBroker};
  const SectionResult broker_publish =
      time_section("broker_publish", queries, [&](std::uint64_t i) {
        const auto& route =
            broker.handle_publication(primary_probes[i], publish_origin, scratch);
        sink += route.local_matches.size() + route.destinations.size();
      });
  // Oracle: decision-for-decision equality against the flat scan, from
  // both a local and a neighbour origin (never-send-back).
  for (std::uint64_t i = 0; i < queries; i += std::max<std::uint64_t>(queries / 8, 1)) {
    for (const routing::Origin& origin :
         {publish_origin, routing::Origin{false, 1}}) {
      const auto expected = oracle_route(primary_probes[i], origin);
      const auto& route =
          broker.handle_publication(primary_probes[i], origin, scratch);
      gate.check(route.local_matches == expected.local_matches &&
                     route.destinations == expected.destinations,
                 "broker_publish route drift at probe " + std::to_string(i) +
                     (origin.local ? " (local)" : " (neighbour)"));
    }
  }

  // --- Section: broker_publish_pipelined --------------------------------
  // Same broker, same routed table, same probes — through the staged
  // pipeline. Chunked timing: each latency sample covers one run() call of
  // up to --pipeline-chunk publications (the pipeline amortizes across a
  // chunk, so per-publication timing would measure the harness, not the
  // path). ops stays the publication count, so ops_per_sec is comparable
  // with broker_publish.
  routing::PublishPipelineOptions pipeline_options;
  const auto pipeline_workers = flags.get_int("pipeline-workers", -1);
  if (pipeline_workers >= 0) {
    pipeline_options.workers = static_cast<std::size_t>(pipeline_workers);
  }
  pipeline_options.batch_size =
      static_cast<std::size_t>(flags.get_int("pipeline-batch", 16));
  pipeline_options.queue_depth =
      static_cast<std::size_t>(flags.get_int("pipeline-depth", 4));
  const auto pipeline_chunk = static_cast<std::uint64_t>(
      flags.get_int("pipeline-chunk", 256));
  routing::PublishPipeline pipeline(pipeline_options);
  std::vector<routing::Broker::PublicationRoute> pipe_routes;
  const SectionResult broker_publish_pipelined = [&] {
    bench::LatencyRecorder latencies;
    const bench::Timer timer;
    std::uint64_t done = 0;
    while (done < queries) {
      const std::uint64_t n = std::min(pipeline_chunk, queries - done);
      latencies.time([&] {
        pipeline.run(broker,
                     std::span<const Publication>(
                         primary_probes.data() + done, n),
                     publish_origin, pipe_routes);
        for (const auto& route : pipe_routes) {
          sink += route.local_matches.size() + route.destinations.size();
        }
      });
      done += n;
    }
    return latencies.section("broker_publish_pipelined", queries,
                             timer.elapsed_seconds());
  }();
  // Oracle: the same flat-scan equality through the pipeline.
  for (std::uint64_t i = 0; i < queries;
       i += std::max<std::uint64_t>(queries / 8, 1)) {
    for (const routing::Origin& origin :
         {publish_origin, routing::Origin{false, 1}}) {
      pipeline.run(broker,
                   std::span<const Publication>(primary_probes.data() + i, 1),
                   origin, pipe_routes);
      const auto expected = oracle_route(primary_probes[i], origin);
      gate.check(pipe_routes.at(0).local_matches == expected.local_matches &&
                     pipe_routes.at(0).destinations == expected.destinations,
                 "broker_publish_pipelined route drift at probe " +
                     std::to_string(i) +
                     (origin.local ? " (local)" : " (neighbour)"));
    }
  }

  // --- Section: churn_soak (five topologies, differential oracle on) ---
  struct SoakRow {
    std::string name;
    std::size_t brokers = 0;
    std::uint64_t ops = 0;
    std::uint64_t publishes = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t lost = 0;
    double ops_per_sec = 0.0;
  };
  std::vector<SoakRow> soak_rows;
  {
    workload::ChurnConfig churn_config;
    churn_config.duration = soak_duration;
    churn_config.subscription_rate = 3.0;
    churn_config.publication_rate = 5.0;
    for (routing::Topology& topology : routing::standard_topologies(seed)) {
      const routing::NetworkConfig net_config =
          routing::NetworkConfig::Builder()
              .pipelined(pipeline_options)
              .build();
      churn_config.link_latency = net_config.link_latency;
      const auto trace =
          workload::generate_churn_trace(churn_config, topology.brokers, seed);
      auto net = topology.build(net_config);
      const bench::Timer timer;
      sim::ChurnDriver::Options driver_options;
      driver_options.differential = true;
      driver_options.pipelined_publish = true;
      const auto report = sim::ChurnDriver::run(net, trace, driver_options);
      const double elapsed = timer.elapsed_seconds();
      SoakRow row;
      row.name = topology.name;
      row.brokers = topology.brokers;
      row.ops = report.ops;
      row.publishes = report.publishes;
      row.mismatched = report.mismatched_publishes;
      row.lost = report.totals.notifications_lost;
      row.ops_per_sec =
          elapsed > 0 ? static_cast<double>(report.ops) / elapsed : 0.0;
      gate.check(row.mismatched == 0,
                 "churn_soak differential mismatch on " + row.name);
      gate.check(row.lost == 0, "churn_soak lost notifications on " + row.name);
      soak_rows.push_back(std::move(row));
    }
  }

  // ---------------------------------------------------------------- table
  bench::TableWriter table(
      {"section", "actives", "ops", "ops_per_sec", "p50_ns", "p99_ns"});
  for (const ScaleResult& scale : scales) {
    for (const SectionResult* r :
         {&scale.stab, &scale.box, &scale.churn_amortized}) {
      table.add_row({r->name, static_cast<long long>(scale.actives),
                     static_cast<long long>(r->ops), r->ops_per_sec, r->p50_ns,
                     r->p99_ns});
    }
  }
  for (const SectionResult* r : {&churn_eager, &engine_rspc, &engine_residue,
                                 &broker_publish, &broker_publish_pipelined}) {
    table.add_row({r->name, static_cast<long long>(actives),
                   static_cast<long long>(r->ops), r->ops_per_sec, r->p50_ns,
                   r->p99_ns});
  }
  table.print(std::cout);
  std::cout << "\nchurn speedup (amortized / eager) at " << actives
            << " actives: " << speedup << "x\n";
  std::cout << "engine_rspc: " << engine_trials_per_sec << " trials/sec ("
            << engine_trials << " trials)\n";
  std::cout << "engine_residue: " << fragments_per_check
            << " fragment visits per check (recording only)\n";
  for (const SoakRow& row : soak_rows) {
    std::cout << "soak " << row.name << ": " << row.ops_per_sec
              << " ops/sec, mismatched=" << row.mismatched
              << ", lost=" << row.lost << "\n";
  }

  // ----------------------------------------------------------------- json
  // Top-level config/sections describe the PRIMARY tier and hold the
  // sections measured there only; the index-bound sections of every tier,
  // the primary one included, live in "scales".
  if (!json_path.empty()) {
    bench::JsonReport report(json_path, "perf_gate");
    bench::JsonWriter& json = report.json;
    json.member("seed", seed);
    json.member("small", small);
    json.begin_object("simd");
    json.member("backend", simd::backend_name());
    json.member("vectorized", simd::vectorized());
    json.end_object();
    json.begin_object("config");
    json.member("actives", std::uint64_t{actives});
    json.member("attributes", std::uint64_t{attrs});
    json.member("queries", queries);
    json.member("churn_ops", churn_ops);
    json.member("soak_duration", soak_duration);
    json.end_object();
    json.begin_object("sections");
    write_section(json, churn_eager);
    json.begin_object(engine_rspc.name);
    json.member("ops", engine_rspc.ops);
    json.member("ops_per_sec", engine_rspc.ops_per_sec);
    json.member("p50_ns", engine_rspc.p50_ns);
    json.member("p99_ns", engine_rspc.p99_ns);
    json.member("trials", engine_trials);
    json.member("trials_per_sec", engine_trials_per_sec);
    json.end_object();
    json.begin_object(engine_residue.name);
    json.member("ops", engine_residue.ops);
    json.member("ops_per_sec", engine_residue.ops_per_sec);
    json.member("p50_ns", engine_residue.p50_ns);
    json.member("p99_ns", engine_residue.p99_ns);
    json.member("fragments", residue_fragments);
    json.member("fragments_per_check", fragments_per_check);
    json.end_object();
    write_section(json, broker_publish);
    write_section(json, broker_publish_pipelined);
    json.begin_object("churn_soak");
    json.begin_array("topologies");
    for (const SoakRow& row : soak_rows) {
      json.begin_object();
      json.member("name", row.name);
      json.member("brokers", std::uint64_t{row.brokers});
      json.member("ops", row.ops);
      json.member("publishes", row.publishes);
      json.member("ops_per_sec", row.ops_per_sec);
      json.member("mismatched_publishes", row.mismatched);
      json.member("lost", row.lost);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.end_object();
    json.begin_array("scales");
    for (const ScaleResult& scale : scales) {
      json.begin_object();
      json.begin_object("config");
      json.member("actives", std::uint64_t{scale.actives});
      json.member("attributes", std::uint64_t{attrs});
      json.member("queries", scale.queries);
      json.member("churn_ops", scale.churn_ops);
      json.end_object();
      json.begin_object("sections");
      write_section(json, scale.stab);
      write_section(json, scale.box);
      write_section(json, scale.churn_amortized);
      json.end_object();
      json.member("checksum_simd", scale.checksum_simd);
      json.member("checksum_scalar", scale.checksum_scalar);
      json.end_object();
    }
    json.end_array();
    json.begin_object("gates");
    json.member("oracle_divergences", gate.divergences);
    json.member("churn_speedup_vs_eager", speedup);
    json.member("churn_speedup_required",
                small ? 0.0 : 3.0);
    json.end_object();
    json.member("checksum_sink", sink);  // defeats dead-code elimination
  }

  // ---------------------------------------------------------------- gates
  if (gate.divergences > 0) {
    std::cerr << "\nFAIL: " << gate.divergences << " oracle divergences\n";
    return 1;
  }
  if (!small && speedup < 3.0) {
    std::cerr << "\nFAIL: churn speedup " << speedup
              << "x below the 3x acceptance gate\n";
    return 1;
  }
  return 0;
}
