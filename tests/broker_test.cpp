// Direct unit tests for the Broker node logic (routing table, per-link
// coverage state, duplicate suppression, publication routing over the
// publish lanes — the paper's Algorithm 5 notification step) independent
// of the network/event machinery.
#include "routing/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace psc::routing {
namespace {

using core::Interval;
using core::Publication;
using core::Subscription;
using core::SubscriptionId;

Subscription box2(double lo1, double hi1, double lo2, double hi2,
                  SubscriptionId id) {
  return Subscription({Interval{lo1, hi1}, Interval{lo2, hi2}}, id);
}

store::StoreConfig pairwise() {
  store::StoreConfig config;
  config.policy = store::CoveragePolicy::kPairwise;
  return config;
}

Broker make_broker(std::initializer_list<BrokerId> neighbors,
                   store::StoreConfig config = pairwise()) {
  Broker broker(0, config, /*seed=*/1);
  for (const BrokerId n : neighbors) broker.add_neighbor(n);
  return broker;
}

TEST(Broker, ForwardsToAllNeighborsExceptOrigin) {
  Broker broker = make_broker({1, 2, 3});
  const auto targets =
      broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 2});
  EXPECT_EQ(targets, (std::vector<BrokerId>{1, 3}));
}

TEST(Broker, LocalSubscriptionForwardsEverywhere) {
  Broker broker = make_broker({1, 2});
  const auto targets = broker.handle_subscription(box2(0, 10, 0, 10, 1),
                                                  Origin{true, kInvalidBroker});
  EXPECT_EQ(targets, (std::vector<BrokerId>{1, 2}));
  EXPECT_EQ(broker.routing_table_size(), 1u);
}

TEST(Broker, DuplicateSubscriptionNotReforwarded) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  const auto second =
      broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 2});
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(broker.routing_table_size(), 1u);
}

TEST(Broker, CoverageSuppressesPerLink) {
  Broker broker = make_broker({1});
  std::uint64_t suppressed = 0;
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker},
                                   &suppressed);
  EXPECT_EQ(suppressed, 0u);
  const auto covered = broker.handle_subscription(
      box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker}, &suppressed);
  EXPECT_TRUE(covered.empty());
  EXPECT_EQ(suppressed, 1u);
  // Both subscriptions are still routed locally.
  EXPECT_EQ(broker.routing_table_size(), 2u);
  // The link store knows one active + one covered.
  const auto* link = broker.forwarded_store(1);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->active_count(), 1u);
  EXPECT_EQ(link->covered_count(), 1u);
}

const Origin kLocal{true, kInvalidBroker};

TEST(Broker, PublicationRoutedAlongReversePaths) {
  Broker broker = make_broker({1, 2, 3});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  (void)broker.handle_subscription(box2(20, 30, 0, 10, 2), Origin{false, 2});
  (void)broker.handle_subscription(box2(0, 5, 0, 5, 3), kLocal);

  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({3.0, 3.0}), Origin{false, 3}, scratch);
  EXPECT_EQ(route.destinations, (std::vector<BrokerId>{1}));
  EXPECT_EQ(route.local_matches, (std::vector<SubscriptionId>{3}));
}

TEST(Broker, PublicationNeverSentBackToOrigin) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({5.0, 5.0}), Origin{false, 1}, scratch);
  EXPECT_TRUE(route.destinations.empty());
  EXPECT_TRUE(route.local_matches.empty());
}

TEST(Broker, PublicationDeliveredToLocalSubscribersOnly) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), kLocal);
  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({5.0, 5.0}), kLocal, scratch);
  EXPECT_EQ(route.local_matches, (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(route.destinations.empty());
}

TEST(Broker, PublicationMatchingNothingGoesNowhere) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 2), kLocal);
  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({50.0, 50.0}), kLocal, scratch);
  EXPECT_TRUE(route.local_matches.empty());
  EXPECT_TRUE(route.destinations.empty());
}

TEST(Broker, CoveredSubscriptionStillNotified) {
  // #2 is covered by #1 on the link store (never forwarded), but coverage
  // only prunes forwarding: both local subscribers get the publication.
  Broker broker = make_broker({1});
  std::uint64_t suppressed = 0;
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), kLocal, &suppressed);
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), kLocal, &suppressed);
  ASSERT_EQ(suppressed, 1u);
  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({5.0, 5.0}), Origin{false, 1}, scratch);
  EXPECT_EQ(route.local_matches, (std::vector<SubscriptionId>{1, 2}));
}

TEST(Broker, DestinationsOrderedByFirstMatchingId) {
  // Each matching neighbour appears once, ordered by its smallest matching
  // id — here neighbour 9 owns id 1 and neighbour 7 owns ids 2 and 3.
  Broker broker = make_broker({7, 9});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 1), Origin{false, 9});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 2), Origin{false, 7});
  (void)broker.handle_subscription(box2(4, 6, 4, 6, 3), Origin{false, 7});
  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({5.0, 5.0}), kLocal, scratch);
  EXPECT_EQ(route.destinations, (std::vector<BrokerId>{9, 7}));
  EXPECT_TRUE(route.local_matches.empty());
}

TEST(Broker, UnsubscriptionStopsMatching) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), kLocal);
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 2), Origin{false, 1});
  (void)broker.handle_unsubscription(1, kLocal);
  (void)broker.handle_unsubscription(2, Origin{false, 1});
  Broker::PublishScratch scratch;
  const auto& route =
      broker.handle_publication(Publication({5.0, 5.0}), kLocal, scratch);
  EXPECT_TRUE(route.local_matches.empty());
  EXPECT_TRUE(route.destinations.empty());
}

TEST(Broker, UnsubscriptionOnlyToLinksThatCarriedIt) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker});
  // #2 was suppressed on both links; unsubscribing it forwards nowhere.
  const auto outcome2 = broker.handle_unsubscription(2, Origin{true, kInvalidBroker});
  EXPECT_TRUE(outcome2.forward_to.empty());
  EXPECT_TRUE(outcome2.reannounce.empty());
}

TEST(Broker, UnsubscriptionReannouncesPromotedCoveredSubs) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker});
  const auto outcome = broker.handle_unsubscription(1, Origin{true, kInvalidBroker});
  EXPECT_EQ(outcome.forward_to, (std::vector<BrokerId>{1}));
  ASSERT_EQ(outcome.reannounce.size(), 1u);
  EXPECT_EQ(outcome.reannounce[0].first, 1u);
  EXPECT_EQ(outcome.reannounce[0].second.id(), 2u);
}

TEST(Broker, UnknownUnsubscriptionIsNoop) {
  Broker broker = make_broker({1});
  const auto outcome = broker.handle_unsubscription(99, Origin{true, kInvalidBroker});
  EXPECT_TRUE(outcome.forward_to.empty());
}

TEST(Broker, ExpiryDropsRouteAndReannounces) {
  Broker broker = make_broker({1});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{true, kInvalidBroker});
  (void)broker.handle_subscription(box2(2, 8, 2, 8, 2), Origin{true, kInvalidBroker});
  const auto reannounce = broker.handle_expiry(1);
  EXPECT_EQ(broker.routing_table_size(), 1u);
  ASSERT_EQ(reannounce.size(), 1u);
  EXPECT_EQ(reannounce[0].second.id(), 2u);
}

TEST(Broker, SubscriptionsFromFiltersByOrigin) {
  Broker broker = make_broker({1, 2});
  (void)broker.handle_subscription(box2(0, 10, 0, 10, 1), Origin{false, 1});
  (void)broker.handle_subscription(box2(20, 30, 0, 10, 2), Origin{false, 2});
  (void)broker.handle_subscription(box2(40, 50, 0, 10, 3), Origin{false, 1});
  auto from1 = broker.subscriptions_from(Origin{false, 1});
  std::sort(from1.begin(), from1.end());
  EXPECT_EQ(from1, (std::vector<SubscriptionId>{1, 3}));
}

TEST(Broker, AddNeighborIdempotent) {
  Broker broker = make_broker({1, 1, 1});
  EXPECT_EQ(broker.neighbors().size(), 1u);
}

}  // namespace
}  // namespace psc::routing
