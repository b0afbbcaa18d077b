// Property tests for the exec layer's determinism contract
// (docs/ARCHITECTURE.md):
//
//   1. shard_count == 1 is decision-for-decision identical to the
//      sequential SubscriptionStore — same InsertResults (activation,
//      coverage, demotions, engine verdicts), same promotions on erase,
//      same match outputs IN ORDER — under randomized churn, for every
//      coverage policy (the exec analogue of index_equivalence_test).
//
//   2. match_batch notifications over shards = 1, 2, 8 are identical to
//      the sequential store's matches for randomized workloads, for any
//      pool size (0 = inline, or multi-worker), as id sets per
//      publication. For a coverage-free store matching is exact and
//      partition-independent, so this holds with equality.
//
//   3. Broker batch paths reproduce their sequential counterparts:
//      insert_batch == handle_subscription loop (forward lists, link-store
//      states, suppression counts), and PublishPipeline::run over a
//      worker pool routes every publication exactly like a flat scan over
//      the routed (subscription, origin) pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "exec/sharded_store.hpp"
#include "exec/thread_pool.hpp"
#include "route_reference.hpp"
#include "routing/broker.hpp"
#include "routing/publish_pipeline.hpp"
#include "store/subscription_store.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace psc::exec {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

void expect_same_insert(const store::InsertResult& a,
                        const store::InsertResult& b, int step) {
  EXPECT_EQ(a.accepted_active, b.accepted_active) << step;
  EXPECT_EQ(a.covered, b.covered) << step;
  EXPECT_EQ(a.demoted, b.demoted) << step;
  ASSERT_EQ(a.engine_result.has_value(), b.engine_result.has_value()) << step;
  if (a.engine_result) {
    EXPECT_EQ(a.engine_result->covered, b.engine_result->covered) << step;
    EXPECT_EQ(a.engine_result->path, b.engine_result->path) << step;
    EXPECT_EQ(a.engine_result->iterations, b.engine_result->iterations) << step;
    EXPECT_EQ(a.engine_result->rho_w, b.engine_result->rho_w) << step;
  }
}

store::StoreConfig store_config(store::CoveragePolicy policy) {
  store::StoreConfig config;
  config.policy = policy;
  config.engine.max_iterations = 5'000;
  return config;
}

class SingleShardEquivalence
    : public ::testing::TestWithParam<store::CoveragePolicy> {};

// Property 1: the single-shard fallback IS the sequential path.
TEST_P(SingleShardEquivalence, DecisionForDecisionIdenticalUnderChurn) {
  const std::uint64_t seed = 0xabcdULL;
  ShardConfig config;
  config.shard_count = 1;
  config.store = store_config(GetParam());
  ShardedStore sharded(config, seed);
  // The contract names the reference seed explicitly: shard_seed(seed, 0).
  store::SubscriptionStore sequential(config.store, shard_seed(seed, 0));

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 8;
  workload::ComparisonStream stream(stream_config, 77);
  util::Rng rng(5);
  std::vector<SubscriptionId> live;

  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.bernoulli(0.2)) {
      const SubscriptionId victim = live[rng.next_below(live.size())];
      const auto erased_sharded = sharded.erase_reporting(victim);
      const auto erased_sequential = sequential.erase_reporting(victim);
      EXPECT_EQ(erased_sharded.erased, erased_sequential.erased) << step;
      EXPECT_EQ(erased_sharded.promoted, erased_sequential.promoted) << step;
      live.erase(std::find(live.begin(), live.end(), victim));
    } else {
      const Subscription sub = stream.next();
      expect_same_insert(sharded.insert(sub), sequential.insert(sub), step);
      live.push_back(sub.id());
    }
    ASSERT_EQ(sharded.active_count(), sequential.active_count()) << step;
    ASSERT_EQ(sharded.covered_count(), sequential.covered_count()) << step;

    const Publication pub = workload::uniform_publication(
        stream_config.attribute_count, 0.0, 1000.0, rng);
    // Including order: one shard's merge is that shard's own order.
    EXPECT_EQ(sharded.match_active(pub), sequential.match_active(pub)) << step;
    EXPECT_EQ(sharded.match(pub), sequential.match(pub)) << step;
  }
  for (const SubscriptionId id : live) {
    EXPECT_EQ(sharded.is_active(id), sequential.is_active(id));
    EXPECT_EQ(sharded.coverers_of(id), sequential.coverers_of(id));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SingleShardEquivalence,
                         ::testing::Values(store::CoveragePolicy::kNone,
                                           store::CoveragePolicy::kPairwise,
                                           store::CoveragePolicy::kGroup,
                                           store::CoveragePolicy::kExact),
                         [](const auto& info) {
                           return std::string(store::to_string(info.param));
                         });

// Property 2: notifications are shard-count- and pool-size-invariant.
TEST(MatchBatchDeterminism, ShardCountsAgreeWithSequentialStore) {
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 10;
  stream_config.min_constrained = 2;
  stream_config.max_constrained = 5;

  std::vector<Subscription> subs;
  {
    workload::ComparisonStream stream(stream_config, 2006);
    subs = stream.take(400);
  }
  std::vector<Publication> pubs;
  util::Rng pub_rng(17);
  for (int i = 0; i < 120; ++i) {
    pubs.push_back(workload::uniform_publication(stream_config.attribute_count,
                                                 0.0, 1000.0, pub_rng));
  }

  // Sequential reference: one coverage-free store holding everything.
  store::StoreConfig reference_config;
  reference_config.policy = store::CoveragePolicy::kNone;
  reference_config.demote_covered_actives = false;
  store::SubscriptionStore reference(reference_config, 1);
  for (const auto& sub : subs) (void)reference.insert(sub);
  std::vector<std::vector<SubscriptionId>> expected;
  expected.reserve(pubs.size());
  for (const auto& pub : pubs) {
    expected.push_back(reference.match_active(pub));  // already id-sorted
  }

  ThreadPool pool(3);
  for (const std::size_t shards : {1UL, 2UL, 8UL}) {
    ShardConfig config;
    config.shard_count = shards;
    config.store = reference_config;
    ShardedStore sharded(config, 99);
    (void)sharded.insert_batch(subs, &pool);

    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const auto batched = sharded.match_active_batch(pubs, p);
      ASSERT_EQ(batched.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        auto ids = batched[i];
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids, expected[i]) << "shards=" << shards << " pub=" << i;
      }
    }
  }
}

// Same property through the notification step: the matched sets and the
// destination fan-out (each subscription owned by one of five neighbours)
// of a sharded coverage-free store are shard-count-invariant and agree
// with a flat scan over the (subscription, neighbour) pairs.
TEST(MatchBatchDeterminism, ShardedStoreNotificationsMatchFlatScan) {
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  std::vector<Subscription> subs;
  {
    workload::ComparisonStream stream(stream_config, 31);
    subs = stream.take(180);
  }
  std::vector<Publication> pubs;
  util::Rng pub_rng(32);
  for (int i = 0; i < 60; ++i) {
    pubs.push_back(workload::uniform_publication(stream_config.attribute_count,
                                                 0.0, 1000.0, pub_rng));
  }

  const auto owner = [](SubscriptionId id) {
    return static_cast<routing::BrokerId>(id % 5);
  };
  routing::RouteReference reference;
  for (const Subscription& sub : subs) {
    reference.insert(sub, routing::Origin{false, owner(sub.id())});
  }

  store::StoreConfig flat_config;
  flat_config.policy = store::CoveragePolicy::kNone;
  flat_config.demote_covered_actives = false;
  ThreadPool pool(2);
  for (const std::size_t shards : {1UL, 2UL, 8UL}) {
    ShardConfig config;
    config.shard_count = shards;
    config.store = flat_config;
    ShardedStore sharded(config, 1);
    (void)sharded.insert_batch(subs, &pool);
    const auto batched = sharded.match_active_batch(pubs, &pool);
    ASSERT_EQ(batched.size(), pubs.size());
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      auto matched = batched[i];
      std::sort(matched.begin(), matched.end());
      std::vector<routing::BrokerId> destinations;
      for (const SubscriptionId id : matched) {
        if (std::find(destinations.begin(), destinations.end(), owner(id)) ==
            destinations.end()) {
          destinations.push_back(owner(id));
        }
      }
      const routing::Broker::PublicationRoute expected =
          reference.route(pubs[i], routing::Origin{true, routing::kInvalidBroker});
      std::vector<SubscriptionId> expected_matched;
      for (const Subscription& sub : subs) {
        if (pubs[i].matches(sub)) expected_matched.push_back(sub.id());
      }
      std::sort(expected_matched.begin(), expected_matched.end());
      EXPECT_EQ(matched, expected_matched) << "shards=" << shards << " pub=" << i;
      EXPECT_EQ(destinations, expected.destinations)
          << "shards=" << shards << " pub=" << i;
    }
  }
}

// Property 3: broker batch paths reproduce sequential handling.
TEST(BrokerBatchDeterminism, InsertAndMatchBatchesReproduceSequentialBroker) {
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 4;
  stream_config.max_constrained = 3;
  std::vector<Subscription> subs;
  {
    workload::ComparisonStream stream(stream_config, 55);
    subs = stream.take(120);
  }
  // Duplicate ids in the batch must be dropped like repeated deliveries.
  subs.push_back(subs.front());
  std::vector<Publication> pubs;
  util::Rng pub_rng(56);
  for (int i = 0; i < 40; ++i) {
    pubs.push_back(workload::uniform_publication(stream_config.attribute_count,
                                                 0.0, 1000.0, pub_rng));
  }

  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kGroup;
  config.engine.max_iterations = 2'000;

  const routing::Origin local{true, routing::kInvalidBroker};
  ThreadPool pool(2);

  routing::Broker sequential(7, config, 42, /*match_shards=*/1);
  routing::Broker batched(7, config, 42, /*match_shards=*/4);
  for (const routing::BrokerId n : {1u, 2u, 3u}) {
    sequential.add_neighbor(n);
    batched.add_neighbor(n);
  }
  routing::RouteReference reference;

  // Three batches with distinct origins, so matching later exercises both
  // local delivery and reverse-path destinations (including the
  // never-send-back rule).
  const std::size_t third = subs.size() / 3;
  const std::vector<std::pair<routing::Origin, std::span<const Subscription>>>
      batches = {
          {local, std::span<const Subscription>(subs).subspan(0, third)},
          {routing::Origin{false, 1},
           std::span<const Subscription>(subs).subspan(third, third)},
          {routing::Origin{false, 3},
           std::span<const Subscription>(subs).subspan(2 * third)},
      };
  std::uint64_t suppressed_sequential = 0;
  std::uint64_t suppressed_batched = 0;
  for (const auto& [origin, slice] : batches) {
    std::vector<std::vector<routing::BrokerId>> expected_forwards;
    expected_forwards.reserve(slice.size());
    for (const auto& sub : slice) {
      expected_forwards.push_back(
          sequential.handle_subscription(sub, origin, &suppressed_sequential));
      reference.insert(sub, origin);
    }
    const auto forwards =
        batched.insert_batch(slice, origin, &pool, &suppressed_batched);
    EXPECT_EQ(forwards, expected_forwards);
  }
  EXPECT_EQ(suppressed_batched, suppressed_sequential);
  EXPECT_EQ(batched.routing_table_size(), sequential.routing_table_size());
  for (const routing::BrokerId n : {1u, 2u, 3u}) {
    ASSERT_NE(batched.forwarded_store(n), nullptr);
    ASSERT_NE(sequential.forwarded_store(n), nullptr);
    EXPECT_EQ(batched.forwarded_store(n)->active_count(),
              sequential.forwarded_store(n)->active_count());
    EXPECT_EQ(batched.forwarded_store(n)->covered_count(),
              sequential.forwarded_store(n)->covered_count());
  }

  // Matching through the staged pipeline, sized like the pool: both
  // brokers route every publication like the flat scan.
  routing::PublishPipelineOptions pipeline_options;
  pipeline_options.workers = pool.worker_count();
  routing::PublishPipeline pipeline(pipeline_options);
  const routing::Origin from_link{false, 2};
  for (const routing::Broker* broker : {&batched, &sequential}) {
    std::vector<routing::Broker::PublicationRoute> routes;
    pipeline.run(*broker, pubs, from_link, routes);
    ASSERT_EQ(routes.size(), pubs.size());
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      const auto expected = reference.route(pubs[i], from_link);
      EXPECT_EQ(routes[i].local_matches, expected.local_matches) << i;
      EXPECT_EQ(routes[i].destinations, expected.destinations) << i;
    }
  }
}

}  // namespace
}  // namespace psc::exec
