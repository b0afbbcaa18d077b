// Tests for the broker network: the paper's Figure 1 walk-through,
// coverage-pruned flooding, reverse-path forwarding, delivery/loss
// accounting and unsubscription promotion.
#include "routing/broker_network.hpp"

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

NetworkConfig with_policy(store::CoveragePolicy policy) {
  NetworkConfig config;
  config.store.policy = policy;
  return config;
}

// Broker numbering helper to mirror the paper's B1..B9 names.
BrokerId B(int n) { return static_cast<BrokerId>(n - 1); }

TEST(BrokerNetwork, Figure1TopologyShape) {
  const auto net = BrokerNetwork::figure1_topology();
  EXPECT_EQ(net.broker_count(), 9u);
  EXPECT_EQ(net.broker(B(3)).neighbors().size(), 3u);  // B1, B2, B4
  EXPECT_EQ(net.broker(B(4)).neighbors().size(), 4u);  // B3, B5, B6, B7
  EXPECT_EQ(net.broker(B(7)).neighbors().size(), 3u);  // B4, B8, B9
  EXPECT_EQ(net.broker(B(1)).neighbors().size(), 1u);
}

TEST(BrokerNetwork, SubscriptionFloodsWholeTree) {
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));
  // Tree with 9 nodes: 8 links, each crossed once.
  EXPECT_EQ(net.metrics().subscription_messages, 8u);
  // Every broker now routes s1.
  for (int b = 1; b <= 9; ++b) {
    EXPECT_EQ(net.broker(B(b)).routing_table_size(), 1u) << "B" << b;
  }
}

TEST(BrokerNetwork, PaperFigure1CoverageSuppressesSecondSubscription) {
  // s1 at S1 (B1) floods everywhere; s2 ⊑ s1 at S2 (B6) must NOT be
  // re-flooded past brokers that already forwarded s1 on the same links —
  // in the paper: B4 forwards s2 to B3 is suppressed... B4 forwards to B3?
  // The paper: "B4 will forward it to B3, but not to B5 nor B7 because B4
  // has previously subscribed to s1". With per-link covering state the
  // suppression happens at every link that already carries s1 toward the
  // publisher side. We assert the aggregate effect: s2 generates strictly
  // fewer messages than s1's 8, and brokers B5/B8/B9 never learn s2.
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));  // s1
  const auto subs_before = net.metrics().subscription_messages;
  net.subscribe(B(6), box2(2, 8, 2, 8, 2));  // s2 ⊑ s1
  const auto s2_messages = net.metrics().subscription_messages - subs_before;
  EXPECT_LT(s2_messages, 8u);
  EXPECT_GT(net.metrics().subscriptions_suppressed, 0u);
  EXPECT_EQ(net.broker(B(5)).routing_table_size(), 1u);  // only s1
}

TEST(BrokerNetwork, PublicationFollowsReversePathOnly) {
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));
  net.reset_metrics();
  // P1 at B9 publishes a matching notification: path B9-B7-B4-B3-B1 = 4 hops.
  const auto delivered = net.publish(B(9), Publication({5.0, 5.0}));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 1u);
  EXPECT_EQ(net.metrics().publication_messages, 4u);
  EXPECT_EQ(net.metrics().notifications_delivered, 1u);
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, PaperDeliveryTreesForS1AndS2) {
  // n1 matches both s2 and s1 -> delivered to both subscribers.
  // n2 matches s1 only.
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));  // s1 at S1/B1
  net.subscribe(B(6), box2(2, 8, 2, 8, 2));    // s2 ⊑ s1 at S2/B6
  const auto n1 = net.publish(B(9), Publication({5.0, 5.0}));  // inside s2
  EXPECT_EQ(n1, (std::vector<SubscriptionId>{1, 2}));
  const auto n2 = net.publish(B(5), Publication({9.5, 9.5}));  // s1 only
  EXPECT_EQ(n2, (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, NonMatchingPublicationGoesNowhere) {
  auto net = BrokerNetwork::figure1_topology(
      with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(B(1), box2(0, 10, 0, 10, 1));
  net.reset_metrics();
  const auto delivered = net.publish(B(9), Publication({50.0, 50.0}));
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(net.metrics().publication_messages, 0u);
}

TEST(BrokerNetwork, GroupCoverageSuppressesUnionCoveredSubscription) {
  // Two slab subscriptions whose union covers the third: the group policy
  // suppresses the third's flood entirely on links where both slabs
  // already travelled.
  auto net =
      BrokerNetwork::chain_topology(4, with_policy(store::CoveragePolicy::kGroup));
  net.subscribe(0, box2(820, 850, 1001, 1007, 1));
  net.subscribe(0, box2(840, 880, 1002, 1009, 2));
  net.reset_metrics();
  net.subscribe(0, box2(830, 870, 1003, 1006, 3));  // covered by 1 v 2
  // Suppressed at the very first link, so downstream brokers never see it:
  // exactly one suppression event and zero messages.
  EXPECT_EQ(net.metrics().subscription_messages, 0u);
  EXPECT_EQ(net.metrics().subscriptions_suppressed, 1u);
  // Pairwise policy would have forwarded it.
  auto net2 = BrokerNetwork::chain_topology(
      4, with_policy(store::CoveragePolicy::kPairwise));
  net2.subscribe(0, box2(820, 850, 1001, 1007, 1));
  net2.subscribe(0, box2(840, 880, 1002, 1009, 2));
  net2.reset_metrics();
  net2.subscribe(0, box2(830, 870, 1003, 1006, 3));
  EXPECT_EQ(net2.metrics().subscription_messages, 3u);
}

TEST(BrokerNetwork, SuppressedSubscriptionStillServedViaCoveringSet) {
  // The suppressed subscription's notifications still arrive: brokers
  // forward matching publications along the covering subscriptions' paths,
  // and the subscriber-side broker matches locally.
  auto net =
      BrokerNetwork::chain_topology(4, with_policy(store::CoveragePolicy::kGroup));
  net.subscribe(3, box2(820, 850, 1001, 1007, 1));
  net.subscribe(3, box2(840, 880, 1002, 1009, 2));
  net.subscribe(3, box2(830, 870, 1003, 1006, 3));  // covered; not flooded
  const auto delivered = net.publish(0, Publication({845.0, 1004.0}));
  // 845,1004 inside s3, also inside s1 and s2.
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, FloodingPolicyDeliversEverythingAtHigherCost) {
  auto none = BrokerNetwork::chain_topology(
      6, with_policy(store::CoveragePolicy::kNone));
  auto pairwise = BrokerNetwork::chain_topology(
      6, with_policy(store::CoveragePolicy::kPairwise));
  for (auto* net : {&none, &pairwise}) {
    net->subscribe(0, box2(0, 10, 0, 10, 1));
    net->subscribe(0, box2(2, 8, 2, 8, 2));
    net->subscribe(0, box2(3, 7, 3, 7, 3));
  }
  EXPECT_GT(none.metrics().subscription_messages,
            pairwise.metrics().subscription_messages);
  // Both deliver the same notifications.
  const auto d1 = none.publish(5, Publication({5.0, 5.0}));
  const auto d2 = pairwise.publish(5, Publication({5.0, 5.0}));
  EXPECT_EQ(d1, d2);
}

TEST(BrokerNetwork, UnsubscribeRemovesRoutesAndPromotes) {
  auto net = BrokerNetwork::chain_topology(
      3, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  net.subscribe(0, box2(2, 8, 2, 8, 2));  // suppressed (covered by 1)
  net.unsubscribe(0, 1);
  // s2 must now be promoted and flooded so its publications still arrive.
  const auto delivered = net.publish(2, Publication({5.0, 5.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(net.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, UnsubscribeOfDemotedSubscriptionReachesAllBrokers) {
  // Regression (churn differential find): s1 floods while uncovered, THEN
  // s2 ⊇ s1 arrives. s1 was announced everywhere before s2 existed, so
  // s1's unsubscription must still flood — a link store that demoted s1
  // under s2 must not swallow it, or downstream brokers keep a ghost
  // route for s1 forever.
  auto net = BrokerNetwork::chain_topology(
      3, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(2, 8, 2, 8, 1));    // s1 floods first
  net.subscribe(0, box2(0, 10, 0, 10, 2));  // s2 covers s1, floods too
  net.unsubscribe(0, 1);
  for (BrokerId b = 0; b < 3; ++b) {
    EXPECT_EQ(net.broker(b).routing_table_size(), 1u) << "broker " << b;
  }
}

TEST(BrokerNetwork, PromotedTtlSubscriptionStillExpiresAfterReannounce) {
  // Regression (churn differential find): a TTL subscription suppressed as
  // covered is later promoted when its coverer unsubscribes. The
  // re-announcement must carry the original expiry — without it the
  // receiving broker would route the promoted subscription forever.
  auto net = BrokerNetwork::chain_topology(
      2, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));            // coverer
  net.subscribe_with_ttl(0, box2(2, 8, 2, 8, 2), 5.0);  // suppressed on link
  EXPECT_EQ(net.broker(1).routing_table_size(), 1u);  // only s1 announced
  net.unsubscribe(0, 1);  // promotes s2, reannounces it to broker 1
  EXPECT_EQ(net.broker(1).routing_table_size(), 1u);  // now s2
  net.advance_time(6.0);  // past s2's expiry
  EXPECT_EQ(net.broker(0).routing_table_size(), 0u);
  EXPECT_EQ(net.broker(1).routing_table_size(), 0u);
  EXPECT_EQ(net.local_subscription_count(), 0u);
}

TEST(BrokerNetwork, MovedNetworkKeepsDelivering) {
  // A network moved after its first cascade must still deliver: the
  // transport's callbacks and queue may not point into the moved-from one.
  auto a = BrokerNetwork::chain_topology(3);
  a.subscribe(0, Subscription({Interval{0, 100}}, 1));
  auto b = std::move(a);
  EXPECT_EQ(b.publish(2, Publication({50.0})), (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(b.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, MovedNetworkKeepsTtlTimers) {
  // Expiry timers armed before the move fire on the moved-to network.
  auto a = BrokerNetwork::chain_topology(3);
  a.subscribe_with_ttl(0, Subscription({Interval{0, 100}}, 1), 5.0);
  auto b = std::move(a);
  EXPECT_EQ(b.publish(2, Publication({50.0})), (std::vector<SubscriptionId>{1}));
  b.advance_time(6.0);
  EXPECT_EQ(b.local_subscription_count(), 0u);
  for (BrokerId id = 0; id < 3; ++id) {
    EXPECT_EQ(b.broker(id).routing_table_size(), 0u);
  }
  EXPECT_TRUE(b.publish(2, Publication({50.0})).empty());
  EXPECT_EQ(b.metrics().notifications_lost, 0u);
}

TEST(BrokerNetwork, ExpectedRecipientsGroundTruth) {
  auto net = BrokerNetwork::chain_topology(
      3, with_policy(store::CoveragePolicy::kPairwise));
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  net.subscribe(2, box2(5, 15, 5, 15, 2));
  const auto expected = net.expected_recipients(Publication({7.0, 7.0}));
  EXPECT_EQ(expected, (std::vector<SubscriptionId>{1, 2}));
}

TEST(BrokerNetwork, DuplicateSubscriptionIdThrows) {
  auto net = BrokerNetwork::chain_topology(2);
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  EXPECT_THROW(net.subscribe(1, box2(0, 1, 0, 1, 1)), std::invalid_argument);
  EXPECT_THROW(net.subscribe(0, box2(0, 1, 0, 1, 0)), std::invalid_argument);
}

TEST(BrokerNetwork, UnsubscribeUnknownThrows) {
  auto net = BrokerNetwork::chain_topology(2);
  EXPECT_THROW(net.unsubscribe(0, 99), std::invalid_argument);
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  EXPECT_THROW(net.unsubscribe(1, 1), std::invalid_argument);  // wrong home
}

TEST(BrokerNetwork, SelfLinkRejected) {
  BrokerNetwork net;
  const auto a = net.add_broker();
  EXPECT_THROW(net.connect(a, a), std::invalid_argument);
}

TEST(BrokerNetwork, PublishBatchMatchesSequentialPublishes) {
  // Two identical networks; one consumes the publications as a batch at a
  // single simulated instant, the other one by one. Deliveries and loss
  // accounting must agree, for a sharded local match index too.
  for (const std::size_t shards : {1UL, 4UL}) {
    NetworkConfig config = with_policy(store::CoveragePolicy::kGroup);
    config.match_shards = shards;
    auto sequential = BrokerNetwork::figure1_topology(config);
    auto batched = BrokerNetwork::figure1_topology(config);
    for (auto* net : {&sequential, &batched}) {
      net->subscribe(B(1), box2(0, 10, 0, 10, 1));
      net->subscribe(B(6), box2(2, 8, 2, 8, 2));
      net->subscribe(B(8), box2(5, 20, 5, 20, 3));
    }
    const std::vector<Publication> pubs{
        Publication({5.0, 5.0}), Publication({9.5, 9.5}),
        Publication({15.0, 15.0}), Publication({50.0, 50.0})};
    std::vector<std::vector<SubscriptionId>> expected;
    expected.reserve(pubs.size());
    for (const auto& pub : pubs) {
      expected.push_back(sequential.publish(B(9), pub));
    }
    std::vector<std::pair<BrokerId, Publication>> pairs;
    for (const auto& pub : pubs) pairs.emplace_back(B(9), pub);
    EXPECT_EQ(batched.publish_batch(pairs), expected) << shards;
    EXPECT_EQ(batched.metrics().notifications_delivered,
              sequential.metrics().notifications_delivered)
        << shards;
    EXPECT_EQ(batched.metrics().notifications_lost,
              sequential.metrics().notifications_lost)
        << shards;
    EXPECT_EQ(batched.metrics().publication_messages,
              sequential.metrics().publication_messages)
        << shards;
  }
}

TEST(BrokerNetwork, CyclicTopologyTerminates) {
  // Ring of 4 brokers: duplicate suppression must stop infinite flooding.
  auto net = BrokerNetwork(with_policy(store::CoveragePolicy::kPairwise));
  for (int i = 0; i < 4; ++i) net.add_broker();
  net.connect(0, 1);
  net.connect(1, 2);
  net.connect(2, 3);
  net.connect(3, 0);
  net.subscribe(0, box2(0, 10, 0, 10, 1));
  // All brokers learn the subscription; message count is bounded (each of
  // the 4 links crossed at most twice).
  for (BrokerId b = 0; b < 4; ++b) {
    EXPECT_EQ(net.broker(b).routing_table_size(), 1u);
  }
  EXPECT_LE(net.metrics().subscription_messages, 8u);
  // Publication from the far side still arrives exactly once.
  const auto delivered = net.publish(2, Publication({5.0, 5.0}));
  EXPECT_EQ(delivered, (std::vector<SubscriptionId>{1}));
}

}  // namespace
}  // namespace psc::routing
