// Pins the allocation-free publish pipeline: once warm, a steady-state
// publication performs ZERO heap allocations through every layer —
// IntervalIndex::stab into a reused buffer, the SubscriptionStore
// out-parameter match overloads, and
// Broker::handle_publication over the publish lanes with caller-owned
// PublishScratch.
//
// Counting replaces the global allocation functions for this test binary
// (tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "route_reference.hpp"
#include "routing/broker.hpp"
#include "store/subscription_store.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace psc {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

std::vector<Publication> make_publications(std::size_t n, std::size_t attrs,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Publication> pubs;
  pubs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pubs.push_back(workload::uniform_publication(attrs, 0.0, 1000.0, rng));
  }
  return pubs;
}

TEST(PublishAlloc, StoreMatchOutParamsSteadyStateDoNotAllocate) {
  // Pairwise coverage gives a populated cover DAG, so match() exercises
  // the hierarchical descent as well as the index stab.
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kPairwise;
  store::SubscriptionStore store(config, 99);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  workload::ComparisonStream stream(stream_config, 5);
  for (int i = 0; i < 400; ++i) (void)store.insert(stream.next());
  ASSERT_GT(store.covered_count(), 0u) << "want a non-trivial cover DAG";

  const auto pubs = make_publications(64, stream_config.attribute_count, 17);
  std::vector<SubscriptionId> actives, all;
  // Warm-up grows every scratch and output buffer to working-set size.
  for (int round = 0; round < 3; ++round) {
    for (const Publication& pub : pubs) {
      actives.clear();
      store.match_active(pub, actives);
      all.clear();
      store.match(pub, all);
    }
  }

  AllocationGuard guard;
  std::size_t matched = 0;
  for (const Publication& pub : pubs) {
    actives.clear();
    store.match_active(pub, actives);
    all.clear();
    store.match(pub, all);
    matched += all.size();
  }
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state out-parameter matches must reuse every buffer";
  ASSERT_GT(matched, 0u) << "the probe set should actually match something";
}

TEST(PublishAlloc, BrokerPublishWithScratchSteadyStateDoesNotAllocate) {
  // A broker with two neighbour links: the full publication path —
  // local-lane stab, neighbour-lane stabs, the route sort and destination
  // ordering — through caller-owned scratch.
  store::StoreConfig store_config;  // default kGroup + index
  routing::Broker broker(0, store_config, 1234);
  broker.add_neighbor(1);
  broker.add_neighbor(2);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 6;
  workload::ComparisonStream stream(stream_config, 21);
  util::Rng origin_rng(3);
  for (int i = 0; i < 300; ++i) {
    const Subscription sub = stream.next();
    // Mix of local subscribers and routes learned from both neighbours,
    // so publications fan out to local matches and link destinations.
    routing::Origin origin;
    switch (origin_rng.next_below(3)) {
      case 0: origin = routing::Origin{true, routing::kInvalidBroker}; break;
      case 1: origin = routing::Origin{false, 1}; break;
      default: origin = routing::Origin{false, 2}; break;
    }
    (void)broker.handle_subscription(sub, origin);
  }
  ASSERT_GT(broker.routing_table_size(), 0u);

  const auto pubs = make_publications(64, stream_config.attribute_count, 23);
  const routing::Origin pub_origin{true, routing::kInvalidBroker};
  routing::Broker::PublishScratch scratch;
  std::size_t warm_destinations = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Publication& pub : pubs) {
      const auto& route = broker.handle_publication(pub, pub_origin, scratch);
      warm_destinations += route.destinations.size();
    }
  }
  ASSERT_GT(warm_destinations, 0u) << "publications should route somewhere";

  AllocationGuard guard;
  std::size_t local = 0, remote = 0;
  for (const Publication& pub : pubs) {
    const auto& route = broker.handle_publication(pub, pub_origin, scratch);
    local += route.local_matches.size();
    remote += route.destinations.size();
  }
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state Broker::handle_publication must be allocation-free";
  EXPECT_GT(local + remote, 0u);
}

TEST(PublishAlloc, ScratchRouteMatchesFlatScan) {
  // The scratch publish path must produce exactly what a flat scan over
  // the routed (subscription, origin) pairs produces, publication for
  // publication.
  store::StoreConfig store_config;
  routing::Broker broker(7, store_config, 77);
  broker.add_neighbor(3);
  routing::RouteReference reference;
  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 4;
  stream_config.max_constrained = 3;
  workload::ComparisonStream stream(stream_config, 9);
  for (int i = 0; i < 150; ++i) {
    const bool local = i % 3 != 0;
    const Subscription sub = stream.next();
    const routing::Origin origin =
        local ? routing::Origin{true, routing::kInvalidBroker}
              : routing::Origin{false, 3};
    (void)broker.handle_subscription(sub, origin);
    reference.insert(sub, origin);
  }
  const auto pubs = make_publications(40, stream_config.attribute_count, 31);
  routing::Broker::PublishScratch scratch;
  const routing::Origin origin{true, routing::kInvalidBroker};
  for (const Publication& pub : pubs) {
    const auto expected = reference.route(pub, origin);
    const auto& route = broker.handle_publication(pub, origin, scratch);
    EXPECT_EQ(route.local_matches, expected.local_matches);
    EXPECT_EQ(route.destinations, expected.destinations);
  }
}

}  // namespace
}  // namespace psc
