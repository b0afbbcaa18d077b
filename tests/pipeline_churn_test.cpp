// Pipelined publish under membership churn: the BrokerNetwork pipelined
// batch path (NetworkConfig::pipeline) must deliver exactly what
// the sequential injection path delivers — across multi-source batches,
// crash/partition events interleaved between batches (component-aware
// expected_recipients as ground truth), the ChurnDriver's publish
// coalescing against the flat oracle, and snapshot/restore (runtime
// pipeline knobs survive restore_all). In the TSan label set: batches run
// the staged pipeline's cross-thread slot handoff whenever workers > 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"
#include "util/rng.hpp"
#include "workload/churn_workload.hpp"

namespace psc::routing {
namespace {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

Subscription box(SubscriptionId id, double lo, double hi) {
  return Subscription({{lo, hi}, {lo, hi}}, id);
}

NetworkConfig pipelined_config(std::size_t workers = 2) {
  NetworkConfig config;
  config.seed = 7;
  config.pipeline.workers = workers;
  config.pipeline.batch_size = 3;  // small => slot recycling under test
  config.pipeline.queue_depth = 2;
  return config;
}

NetworkConfig sequential_config() {
  NetworkConfig config;
  config.seed = 7;
  return config;
}

/// Populates `net` with a deterministic mixed-coverage subscription load
/// spread across every broker (same stream for every call).
void load_subscriptions(BrokerNetwork& net, std::size_t count,
                        std::uint64_t seed = 41) {
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto broker =
        static_cast<BrokerId>(rng.next_below(net.broker_count()));
    const double lo = 1000.0 * rng.next_double() * 0.9;
    const double hi = lo + 5.0 + 95.0 * rng.next_double();
    net.subscribe(broker, box(static_cast<SubscriptionId>(i + 1), lo, hi));
  }
}

std::vector<std::pair<BrokerId, Publication>> make_batch(
    const BrokerNetwork& net, std::size_t count, util::Rng& rng) {
  std::vector<std::pair<BrokerId, Publication>> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    BrokerId source;
    do {
      source = static_cast<BrokerId>(rng.next_below(net.broker_count()));
    } while (!net.is_alive(source));
    pairs.emplace_back(
        source, Publication({1000.0 * rng.next_double(),
                             1000.0 * rng.next_double()}));
  }
  return pairs;
}

TEST(PipelineChurn, MultiSourceBatchMatchesSequentialNetwork) {
  BrokerNetwork piped = BrokerNetwork::figure1_topology(pipelined_config());
  BrokerNetwork plain = BrokerNetwork::figure1_topology(sequential_config());
  load_subscriptions(piped, 400);
  load_subscriptions(plain, 400);

  util::Rng rng(2006);
  for (int round = 0; round < 20; ++round) {
    const auto pairs = make_batch(piped, 1 + rng.next_below(9), rng);
    const auto from_pipeline = piped.publish_batch(
        std::span<const std::pair<BrokerId, Publication>>(pairs));
    ASSERT_EQ(from_pipeline.size(), pairs.size());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(from_pipeline[p], plain.publish(pairs[p].first, pairs[p].second))
          << "round " << round << " pub " << p;
    }
  }
  EXPECT_EQ(piped.metrics().notifications_lost, 0u);
  EXPECT_EQ(piped.metrics().notifications_duplicated, 0u);
  // Same source-hop fan-out: the pipeline precomputes routes but sends the
  // identical messages.
  EXPECT_GT(piped.metrics().publication_messages, 0u);
}

TEST(PipelineChurn, SingleBrokerBatchMatchesPerPublicationPublish) {
  BrokerNetwork piped = BrokerNetwork::figure1_topology(pipelined_config(0));
  BrokerNetwork plain = BrokerNetwork::figure1_topology(sequential_config());
  load_subscriptions(piped, 300);
  load_subscriptions(plain, 300);

  util::Rng rng(99);
  std::vector<Publication> pubs;
  for (int i = 0; i < 64; ++i) {
    pubs.push_back(Publication({1000.0 * rng.next_double(),
                                1000.0 * rng.next_double()}));
  }
  std::vector<std::pair<BrokerId, Publication>> pairs;
  for (const auto& pub : pubs) pairs.emplace_back(3, pub);
  const auto batched = piped.publish_batch(pairs);
  ASSERT_EQ(batched.size(), pubs.size());
  for (std::size_t p = 0; p < pubs.size(); ++p) {
    EXPECT_EQ(batched[p], plain.publish(3, pubs[p])) << "pub " << p;
  }
}

TEST(PipelineChurn, BatchesInterleavedWithCrashAndPartition) {
  // The satellite scenario: pipelined batches with crash_peer/fail_link
  // between them. Every delivered set must equal the component-aware
  // ground truth for its source at that instant, and a sequential twin
  // driven through the same script must agree decision for decision.
  BrokerNetwork piped = BrokerNetwork::figure1_topology(pipelined_config());
  BrokerNetwork plain = BrokerNetwork::figure1_topology(sequential_config());
  load_subscriptions(piped, 500);
  load_subscriptions(plain, 500);

  const auto publish_round = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    const auto pairs = make_batch(piped, 8, rng);
    const auto got = piped.publish_batch(
        std::span<const std::pair<BrokerId, Publication>>(pairs));
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(got[p], plain.publish(pairs[p].first, pairs[p].second))
          << "seed " << seed << " pub " << p;
      EXPECT_EQ(got[p],
                piped.expected_recipients(pairs[p].first, pairs[p].second))
          << "seed " << seed << " pub " << p;
    }
  };

  publish_round(1);
  piped.fail_link(2, 3);  // cut the backbone: two components
  plain.fail_link(2, 3);
  publish_round(2);
  piped.crash_peer(8);  // crash a leaf; its lanes die with it
  plain.crash_peer(8);
  publish_round(3);
  piped.heal_link(2, 3);
  plain.heal_link(2, 3);
  publish_round(4);
  (void)piped.replace_peer(8, {});
  (void)plain.replace_peer(8, {});
  publish_round(5);

  EXPECT_EQ(piped.metrics().notifications_lost, 0u);
  EXPECT_EQ(piped.metrics().notifications_duplicated, 0u);
  EXPECT_EQ(piped.ghost_route_count(), 0u);
}

TEST(PipelineChurn, RestorePreservesRuntimePipelineKnobs) {
  // snapshot_all does not serialize runtime knobs; restore_all must keep
  // the restoring network's pipelined configuration (and rebuild lanes).
  BrokerNetwork piped = BrokerNetwork::figure1_topology(pipelined_config());
  load_subscriptions(piped, 300);
  const auto image = piped.snapshot_all();

  BrokerNetwork restored(pipelined_config());
  restored.restore_all({image.data(), image.size()});
  BrokerNetwork control(sequential_config());
  control.restore_all({image.data(), image.size()});

  util::Rng rng(5);
  const auto pairs = make_batch(restored, 12, rng);
  const auto got = restored.publish_batch(
      std::span<const std::pair<BrokerId, Publication>>(pairs));
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(got[p], control.publish(pairs[p].first, pairs[p].second)) << p;
  }
  EXPECT_EQ(restored.metrics().notifications_lost, 0u);
  EXPECT_EQ(restored.metrics().notifications_duplicated, 0u);
}

// --- driver coalescing ---------------------------------------------------

workload::ChurnConfig soak_config(double duration) {
  workload::ChurnConfig config;
  config.duration = duration;
  config.subscription_rate = 3.0;
  config.publication_rate = 8.0;  // dense => real multi-publish batches
  config.membership.join_rate = 0.2;
  config.membership.leave_rate = 0.15;
  config.membership.crash_rate = 0.2;
  config.membership.partition_rate = 0.4;
  config.membership.partition_mean = 2.0;
  config.membership.replace_mean = 1.5;
  config.membership.max_brokers = 24 + 8;
  return config;
}

TEST(PipelineChurn, DriverCoalescingMatchesFlatOracleUnderMembership) {
  // ChurnDriver with pipelined_publish coalesces consecutive publish ops
  // into multi-source batches; the per-op differential compare against the
  // flat oracle must still be exact on every membership topology shape.
  for (const auto& topology : membership_topologies(24, 2006)) {
    NetworkConfig config = pipelined_config();
    config.seed = 13;
    BrokerNetwork net = topology.build(config);
    const workload::ChurnTrace trace = workload::generate_churn_trace(
        soak_config(12.0), topology.universe(net), 13);

    sim::ChurnDriver::Options options;
    options.differential = true;
    options.pipelined_publish = true;
    const sim::ChurnReport report = sim::ChurnDriver::run(net, trace, options);

    EXPECT_EQ(report.mismatched_publishes, 0u) << topology.name;
    EXPECT_EQ(report.totals.notifications_lost, 0u) << topology.name;
    EXPECT_EQ(report.totals.notifications_duplicated, 0u) << topology.name;
    EXPECT_EQ(report.membership.ghost_routes, 0u) << topology.name;
  }
}

TEST(PipelineChurn, DriverPipelinedReportMatchesSequentialDriverReport) {
  // Coalescing is an execution detail: the pipelined driver run must land
  // on the same op/publish counts and delivered totals as the sequential
  // run of the same trace (no membership here so both paths coalesce-
  // eligible throughout).
  const auto topologies = membership_topologies(24, 2006);
  const auto& ring = topologies[5];
  ASSERT_EQ(ring.name, "ring");

  workload::ChurnConfig config = soak_config(10.0);
  config.membership.join_rate = 0.0;
  config.membership.leave_rate = 0.0;
  config.membership.crash_rate = 0.0;
  config.membership.partition_rate = 0.0;

  NetworkConfig piped_config = pipelined_config();
  BrokerNetwork piped = ring.build(piped_config);
  BrokerNetwork plain = ring.build(sequential_config());
  const workload::ChurnTrace trace = workload::generate_churn_trace(
      config, ring.universe(piped), 77);

  sim::ChurnDriver::Options piped_options;
  piped_options.differential = true;
  piped_options.pipelined_publish = true;
  sim::ChurnDriver::Options plain_options;
  plain_options.differential = true;

  const auto a = sim::ChurnDriver::run(piped, trace, piped_options);
  const auto b = sim::ChurnDriver::run(plain, trace, plain_options);
  EXPECT_EQ(a.mismatched_publishes, 0u);
  EXPECT_EQ(b.mismatched_publishes, 0u);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.totals.notifications_delivered, b.totals.notifications_delivered);
  EXPECT_EQ(a.totals.notifications_lost, b.totals.notifications_lost);
}

}  // namespace
}  // namespace psc::routing
