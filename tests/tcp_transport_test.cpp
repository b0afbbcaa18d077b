// TCP loopback differential suite (tier 1): a real multi-process broker
// cluster — psc_brokerd processes peered over nonblocking epoll sockets —
// replaying churn traces with delivered sets gated byte-identical against
// the in-process FlatOracle, exactly like the sim's differential suites.
//
// Also the direct sim-vs-TCP leg: the same trace through a BrokerNetwork
// (SimTransport) and through the cluster must produce identical delivered
// sets publish for publish. Both are independently gated against the
// oracle, so this is implied transitively — asserting it directly makes a
// transport-behavior regression point at the transport, not the gate.
//
// The kill leg SIGKILLs a broker mid-trace: every surviving neighbour's
// EOF-triggered purge (the fail_link repair semantics) must quiesce before
// traffic resumes, and the oracle mirrors the crash — zero divergence,
// zero ghost deliveries from the dead component.
//
// psc_brokerd's option parser is tested here too: a bad flag value must
// stop the process with a message, never wrap into a different broker.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/broker_node.hpp"
#include "net/cluster.hpp"
#include "net/cluster_driver.hpp"
#include "routing/broker_network.hpp"
#include "workload/churn_workload.hpp"

#ifndef PSC_BROKERD_BIN
#error "PSC_BROKERD_BIN must point at the psc_brokerd executable"
#endif

namespace psc {
namespace {

using Link = std::pair<routing::BrokerId, routing::BrokerId>;

workload::ChurnTrace make_trace(std::size_t brokers, std::uint64_t seed,
                                double duration) {
  workload::ChurnConfig config;
  config.duration = duration;
  // The TCP op vocabulary is TTL-free (wall clock is not sim time) and
  // membership-free (kills are driver-initiated). ttl_fraction = 0 routes
  // every mortal subscription through an explicit kUnsubscribe instead.
  config.ttl_fraction = 0.0;
  return workload::generate_churn_trace(config, brokers, seed);
}

net::ClusterOptions chain_options(std::size_t brokers, std::uint64_t seed) {
  net::ClusterOptions options;
  options.brokerd_path = PSC_BROKERD_BIN;
  options.brokers = brokers;
  for (routing::BrokerId b = 1; b < brokers; ++b) {
    options.links.emplace_back(b - 1, b);
  }
  options.seed = seed;
  return options;
}

TEST(TcpTransportTest, FiveBrokerChainMatchesOracle) {
  const auto trace = make_trace(5, 0x5eed1, 20.0);
  net::Cluster cluster(chain_options(5, 0x5eed1));
  cluster.start();
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace);
  cluster.shutdown();
  EXPECT_GT(report.publishes, 0u);
  EXPECT_GT(report.subscribes, 0u);
  EXPECT_EQ(report.divergences, 0u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(TcpTransportTest, StarTopologyMatchesOracle) {
  net::ClusterOptions options;
  options.brokerd_path = PSC_BROKERD_BIN;
  options.brokers = 5;
  options.links = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  options.seed = 0x5eed2;
  const auto trace = make_trace(5, 0x5eed2, 15.0);
  net::Cluster cluster(std::move(options));
  cluster.start();
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace);
  cluster.shutdown();
  EXPECT_GT(report.publishes, 0u);
  EXPECT_EQ(report.divergences, 0u);
}

TEST(TcpTransportTest, DeliveredSetsMatchSimTransportPublishForPublish) {
  // The second seed has its top bit set: the cluster must pass it to every
  // brokerd intact, or the TCP side cannot start (or derives other seeds).
  for (const std::uint64_t seed : {0x5eed3ULL, 0x800000000005eed3ULL}) {
    const auto trace = make_trace(5, seed, 15.0);

    // Sim twin: same chain, same seed, the differential kExact store policy
    // the brokerd default uses — decisions are deterministic on both sides.
    routing::NetworkConfig config =
        routing::NetworkConfig::Builder().seed(seed).build();
    config.store.policy = store::CoveragePolicy::kExact;
    auto sim_net = routing::BrokerNetwork::chain_topology(5, config);

    net::Cluster cluster(chain_options(5, seed));
    cluster.start();

    std::size_t publishes = 0;
    for (const workload::ChurnOp& op : trace.ops) {
      switch (op.kind) {
        case workload::ChurnOpKind::kSubscribe:
          sim_net.subscribe(op.broker, op.sub);
          cluster.subscribe(op.broker, op.sub);
          break;
        case workload::ChurnOpKind::kUnsubscribe: {
          sim_net.unsubscribe(op.broker, op.id);
          cluster.unsubscribe(op.broker, op.id);
          break;
        }
        case workload::ChurnOpKind::kPublish: {
          const auto sim_got = sim_net.publish(op.broker, op.pub);
          const auto tcp_got = cluster.publish(op.broker, op.pub);
          EXPECT_EQ(sim_got, tcp_got)
              << "seed " << seed << " publish #" << publishes;
          ++publishes;
          break;
        }
        default:
          break;  // kAdvance: wall clock needs no driving
      }
    }
    cluster.shutdown();
    EXPECT_GT(publishes, 0u) << "seed " << seed;
  }
}

TEST(TcpTransportTest, PromotionReannouncementMatchesSim) {
  // Covered-subscription promotion over sockets: [40,60] (id 2) is
  // suppressed on 0 -> 1 as covered by [0,100] (id 1); unsubscribing id 1
  // must re-announce id 2 along the chain, or broker 2's publication finds
  // no route back to broker 0.
  const std::uint64_t seed = 0x5eed6;
  routing::NetworkConfig config =
      routing::NetworkConfig::Builder().seed(seed).build();
  config.store.policy = store::CoveragePolicy::kExact;
  auto sim_net = routing::BrokerNetwork::chain_topology(3, config);
  net::Cluster cluster(chain_options(3, seed));
  cluster.start();

  const core::Subscription wide({{0.0, 100.0}}, 1);
  const core::Subscription narrow({{40.0, 60.0}}, 2);
  sim_net.subscribe(0, wide);
  cluster.subscribe(0, wide);
  sim_net.subscribe(0, narrow);
  cluster.subscribe(0, narrow);
  const std::uint64_t before = sim_net.metrics().subscription_messages;
  sim_net.unsubscribe(0, 1);
  cluster.unsubscribe(0, 1);
  // The sim side proves the path is exercised: one promotion message per
  // hop of the chain.
  EXPECT_EQ(sim_net.metrics().subscription_messages - before, 2u);

  const core::Publication pub({50.0});
  const std::vector<core::SubscriptionId> want{2};
  EXPECT_EQ(sim_net.publish(2, pub), want);
  EXPECT_EQ(cluster.publish(2, pub), want);
  cluster.shutdown();
}

TEST(TcpTransportTest, KillBrokerMidTraceEscalatesWithoutDivergence) {
  const std::uint64_t seed = 0x5eed4;
  const auto trace = make_trace(5, seed, 20.0);
  net::Cluster cluster(chain_options(5, seed));
  cluster.start();

  net::ReplayOptions options;
  options.kill_at_op = trace.ops.size() / 2;
  options.victim = 2;  // mid-chain: splits {0,1} from {3,4}
  const net::ReplayReport report =
      net::replay_trace_vs_oracle(cluster, trace, options);
  EXPECT_FALSE(cluster.is_alive(2));
  EXPECT_TRUE(cluster.is_alive(0));
  cluster.shutdown();
  EXPECT_TRUE(report.killed);
  EXPECT_GT(report.publishes, 0u);
  EXPECT_EQ(report.divergences, 0u);
}

TEST(TcpTransportTest, KillLeafPurgesItsSubscriptionsEverywhere) {
  // Targeted (non-trace) scenario: subs at a leaf must stop being
  // delivered the moment the leaf dies and its neighbour's purge ran.
  net::Cluster cluster(chain_options(3, 0x5eed5));
  cluster.start();
  cluster.subscribe(2, core::Subscription({{0.0, 100.0}}, 1));
  cluster.subscribe(0, core::Subscription({{0.0, 100.0}}, 2));

  auto delivered = cluster.publish(1, core::Publication({50.0}));
  EXPECT_EQ(delivered, (std::vector<core::SubscriptionId>{1, 2}));

  cluster.kill_broker(2);
  delivered = cluster.publish(1, core::Publication({50.0}));
  // Route to the dead leaf purged: only the surviving sub delivers, and no
  // ghost route makes broker 1 forward into the void.
  EXPECT_EQ(delivered, (std::vector<core::SubscriptionId>{2}));
  cluster.shutdown();
}

net::BrokerNodeOptions parse_brokerd(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"psc_brokerd"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return net::parse_brokerd_options(static_cast<int>(argv.size()),
                                    argv.data());
}

TEST(BrokerdOptions, OutOfRangeOrMalformedValuesThrow) {
  for (const char* bad :
       {"--ports=70000", "--ports=1,65536", "--ports=-1", "--id=-1",
        "--id=4294967295", "--id=4294967296", "--id=", "--id=7x",
        "--neighbors=4294967296", "--neighbors=1,-2", "--neighbors=2,x",
        "--listen-fd=-2", "--listen-fd=2147483648", "--seed=-1",
        "--seed=18446744073709551616"}) {
    EXPECT_THROW((void)parse_brokerd({bad}), std::invalid_argument) << bad;
  }
}

TEST(BrokerdOptions, InRangeValuesParseUnchanged) {
  const net::BrokerNodeOptions options = parse_brokerd(
      {"--id=4294967294", "--seed=18446744073709551615", "--listen-fd=7",
       "--policy=group", "--neighbors=0,,4294967294", "--ports=0,1,65535"});
  EXPECT_EQ(options.id, 4294967294u);
  EXPECT_EQ(options.transport.self, 4294967294u);
  EXPECT_EQ(options.network_seed, 18446744073709551615ULL);
  EXPECT_EQ(options.transport.listen_fd, 7);
  EXPECT_EQ(options.store.policy, store::CoveragePolicy::kGroup);
  EXPECT_EQ(options.transport.neighbors,
            (std::vector<routing::BrokerId>{0, 4294967294u}));
  EXPECT_EQ(options.transport.ports,
            (std::vector<std::uint16_t>{0, 1, 65535}));

  const net::BrokerNodeOptions defaults = parse_brokerd({});
  EXPECT_EQ(defaults.id, 0u);
  EXPECT_EQ(defaults.network_seed, net::BrokerNodeOptions{}.network_seed);
  EXPECT_EQ(defaults.transport.listen_fd, -1);
  EXPECT_EQ(defaults.store.policy, store::CoveragePolicy::kExact);
  EXPECT_TRUE(defaults.transport.neighbors.empty());
  EXPECT_TRUE(defaults.transport.ports.empty());
}

TEST(BrokerdOptions, BadValueExitsNonZeroNamingIt) {
  for (const std::string bad : {"--policy=bogus", "--ports=70000"}) {
    const std::string command = std::string(PSC_BROKERD_BIN) + " " + bad +
                                " 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
    const std::string value = bad.substr(bad.find('=') + 1);
    EXPECT_NE(output.find(value), std::string::npos) << output;
  }
}

}  // namespace
}  // namespace psc
