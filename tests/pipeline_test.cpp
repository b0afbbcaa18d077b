// Property tests for the staged publish pipeline
// (routing/publish_pipeline.hpp): decision-for-decision equality with a
// flat-scan reference (tests/route_reference.hpp) across the full knob grid
// (worker count × batch size × queue depth × origin), equality across
// routing-table mutations (the lanes track the table), and the
// zero-allocation inline steady state. This file is
// in the TSan label set: the threaded grid cells drive the slot rings
// cross-thread exactly as production does.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "alloc_counter.hpp"
#include "routing/broker.hpp"
#include "routing/publish_pipeline.hpp"
#include "route_reference.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace psc::routing {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

constexpr std::size_t kAttrs = 4;

struct Fixture {
  Broker broker;
  RouteReference reference;
  std::vector<Subscription> subs;
  std::vector<Origin> origins;
  std::vector<Publication> pubs;

  explicit Fixture(std::size_t actives, std::size_t probe_count,
                   std::uint64_t seed = 2006)
      : broker(0, store::StoreConfig{}, 2006) {
    broker.add_neighbor(1);
    broker.add_neighbor(2);
    workload::ComparisonConfig stream_config;
    stream_config.attribute_count = kAttrs;
    stream_config.max_constrained = 3;
    workload::ComparisonStream stream(stream_config, seed);
    util::Rng origin_rng(seed + 1);
    for (std::size_t i = 0; i < actives; ++i) {
      Origin origin{true, kInvalidBroker};
      const auto draw = origin_rng.next_below(3);
      if (draw == 1) origin = Origin{false, 1};
      if (draw == 2) origin = Origin{false, 2};
      Subscription sub = stream.next();
      subscribe(sub, origin);
      subs.push_back(std::move(sub));
      origins.push_back(origin);
    }
    util::Rng probe_rng(seed + 2);
    for (std::size_t i = 0; i < probe_count; ++i) {
      pubs.push_back(
          workload::uniform_publication(kAttrs, 0.0, 1000.0, probe_rng));
    }
  }

  void subscribe(const Subscription& sub, const Origin& origin) {
    (void)broker.handle_subscription(sub, origin);
    reference.insert(sub, origin);
  }
};

/// One full equality sweep: every probe, from a local and a neighbour
/// origin, pipeline vs the flat-scan reference. Route ORDER is part of the
/// contract.
void expect_equal_decisions(PublishPipeline& pipeline, const Broker& broker,
                            const RouteReference& reference,
                            const std::vector<Publication>& pubs,
                            const std::string& what) {
  std::vector<Broker::PublicationRoute> routes;
  for (const Origin& origin :
       {Origin{true, kInvalidBroker}, Origin{false, 1}, Origin{false, 2}}) {
    pipeline.run(broker, pubs, origin, routes);
    ASSERT_EQ(routes.size(), pubs.size());
    for (std::size_t p = 0; p < pubs.size(); ++p) {
      const Broker::PublicationRoute expected =
          reference.route(pubs[p], origin);
      ASSERT_EQ(routes[p].local_matches, expected.local_matches)
          << what << " pub " << p << " origin "
          << (origin.local ? -1 : static_cast<int>(origin.neighbor));
      ASSERT_EQ(routes[p].destinations, expected.destinations)
          << what << " pub " << p << " origin "
          << (origin.local ? -1 : static_cast<int>(origin.neighbor));
    }
  }
}

TEST(PublishPipeline, LanesExistFromConstruction) {
  // Every broker routes through its lanes from construction on: a fresh
  // broker routes nothing, and the first routes are visible at once.
  Broker broker(0, store::StoreConfig{}, 2006);
  broker.add_neighbor(1);
  PublishPipeline pipeline;
  std::vector<Broker::PublicationRoute> routes;
  const std::vector<Publication> pubs = {Publication({5.0, 5.0})};
  pipeline.run(broker, pubs, Origin{true, kInvalidBroker}, routes);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0].local_matches.empty());
  EXPECT_TRUE(routes[0].destinations.empty());

  (void)broker.handle_subscription(
      Subscription({{0.0, 10.0}, {0.0, 10.0}}, 1), Origin{false, 1});
  pipeline.run(broker, pubs, Origin{true, kInvalidBroker}, routes);
  EXPECT_EQ(routes[0].destinations, (std::vector<BrokerId>{1}));
}

TEST(PublishPipeline, AutoWorkersResolveFromHardware) {
  const PublishPipeline pipeline;
  // kAuto: 0 on a one-core host, otherwise cores - 1 capped at 4. Either
  // way the resolved count is bounded and the options echo the request.
  EXPECT_LE(pipeline.worker_count(), 4u);
  EXPECT_EQ(pipeline.options().workers, PublishPipelineOptions::kAuto);
}

TEST(PublishPipeline, DecisionEqualAcrossKnobGrid) {
  // The determinism contract, exhaustively: every knob combination must
  // reproduce the reference decision for decision, in order.
  Fixture fx(1200, 24);
  for (const std::size_t workers : {0UL, 1UL, 3UL}) {
    for (const std::size_t batch : {1UL, 3UL, 16UL}) {
      for (const std::size_t depth : {1UL, 4UL}) {
        PublishPipelineOptions options;
        options.workers = workers;
        options.batch_size = batch;
        options.queue_depth = depth;
        PublishPipeline pipeline(options);
        expect_equal_decisions(pipeline, fx.broker, fx.reference, fx.pubs,
                               "workers=" + std::to_string(workers) +
                                   " batch=" + std::to_string(batch) +
                                   " depth=" + std::to_string(depth));
      }
    }
  }
}

TEST(PublishPipeline, DecisionEqualAcrossTableMutations) {
  // The lanes must track unsubscription and expiry; equality is
  // re-checked after each mutation wave through one reused pipeline.
  Fixture fx(800, 16);
  PublishPipelineOptions options;
  options.workers = 2;
  options.batch_size = 4;
  PublishPipeline pipeline(options);
  expect_equal_decisions(pipeline, fx.broker, fx.reference, fx.pubs,
                         "initial");

  // Wave 1: unsubscribe every 3rd id (unsubscriptions arrive from the
  // route's own reverse path in production; the origin only prunes
  // forwarding, the table/lane erase is unconditional).
  for (std::size_t i = 0; i < fx.subs.size(); i += 3) {
    (void)fx.broker.handle_unsubscription(fx.subs[i].id(),
                                          Origin{true, kInvalidBroker});
    fx.reference.erase(fx.subs[i].id());
  }
  expect_equal_decisions(pipeline, fx.broker, fx.reference, fx.pubs,
                         "after unsubscribe");

  // Wave 2: expire every 7th surviving id.
  for (std::size_t i = 1; i < fx.subs.size(); i += 7) {
    if (i % 3 == 0) continue;  // already gone
    (void)fx.broker.handle_expiry(fx.subs[i].id());
    fx.reference.erase(fx.subs[i].id());
  }
  expect_equal_decisions(pipeline, fx.broker, fx.reference, fx.pubs,
                         "after expiry");

  // Wave 3: fresh arrivals on every origin.
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = kAttrs;
  stream_config.max_constrained = 3;
  workload::ComparisonStream stream(stream_config, 777);
  for (std::size_t i = 0; i < 300; ++i) {
    fx.subscribe(stream.next(), fx.origins[i % fx.origins.size()]);
  }
  expect_equal_decisions(pipeline, fx.broker, fx.reference, fx.pubs,
                         "after resubscribe");
}

TEST(PublishPipeline, LanesRebuiltFromSnapshotMatchReference) {
  // Importing a populated routing table must rebuild equivalent lanes
  // (restore_all and crash recovery both hit this).
  Fixture fx(1000, 16);
  Broker restored(0, store::StoreConfig{}, 2006);
  restored.add_neighbor(1);
  restored.add_neighbor(2);
  restored.import_snapshot(fx.broker.export_snapshot());
  PublishPipeline pipeline;
  expect_equal_decisions(pipeline, restored, fx.reference, fx.pubs,
                         "restored");
}

TEST(PublishPipeline, InlineSteadyStateDoesNotAllocate) {
  // Inline mode (workers = 0, the one-core default): after a warm-up run
  // over the same batch, the match + route stages must be allocation-free
  // — slot buffers, lane scratch, radix scratch, and the caller's route
  // vectors are all reused.
  Fixture fx(2000, 32);
  PublishPipelineOptions options;
  options.workers = 0;
  options.batch_size = 8;
  PublishPipeline pipeline(options);
  const Origin origin{true, kInvalidBroker};
  std::vector<Broker::PublicationRoute> routes;
  pipeline.run(fx.broker, fx.pubs, origin, routes);  // warm-up
  pipeline.run(fx.broker, fx.pubs, origin, routes);

  AllocationGuard guard;
  pipeline.run(fx.broker, fx.pubs, origin, routes);
  EXPECT_EQ(guard.count(), 0u);
}

TEST(PublishPipeline, StreamingReuseAcrossManySmallRuns) {
  // The BrokerNetwork shares one pipeline across brokers and calls it once
  // per batch; repeated runs with varying sizes must stay correct.
  Fixture fx(500, 23);
  PublishPipelineOptions options;
  options.workers = 2;
  options.batch_size = 3;
  options.queue_depth = 2;
  PublishPipeline pipeline(options);
  std::vector<Broker::PublicationRoute> routes;
  const Origin origin{false, 1};
  for (std::size_t start = 0; start < fx.pubs.size(); ++start) {
    const std::size_t n =
        std::min<std::size_t>(1 + start % 5, fx.pubs.size() - start);
    pipeline.run(fx.broker,
                 std::span<const Publication>(fx.pubs.data() + start, n),
                 origin, routes);
    for (std::size_t p = 0; p < n; ++p) {
      const auto expected = fx.reference.route(fx.pubs[start + p], origin);
      ASSERT_EQ(routes[p].local_matches, expected.local_matches);
      ASSERT_EQ(routes[p].destinations, expected.destinations);
    }
  }
}

}  // namespace
}  // namespace psc::routing
