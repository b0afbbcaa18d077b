// Traffic matrix: coverage policy x overlay topology.
//
// Complements the figure harnesses with the distributed view the paper's
// Section 5 argues qualitatively: the longer the broker paths, the more a
// suppressed subscription saves — the local reduction is "exponentially
// amplified in the network diameter". Measures subscription messages,
// publication messages and delivery ratio for flooding / pairwise / group
// across chain, star, balanced-tree and ring topologies of 15 brokers.
#include <iostream>

#include "bench_common.hpp"
#include "routing/broker_network.hpp"
#include "util/flags.hpp"
#include "workload/comparison_stream.hpp"
#include "workload/publications.hpp"

namespace {

using namespace psc;
using routing::BrokerId;
using routing::BrokerNetwork;
using routing::NetworkConfig;

constexpr std::size_t kBrokers = 15;

BrokerNetwork make_topology(const std::string& name, NetworkConfig config) {
  if (name == "chain") return BrokerNetwork::chain_topology(kBrokers, config);
  BrokerNetwork net(config);
  for (std::size_t i = 0; i < kBrokers; ++i) net.add_broker();
  if (name == "star") {
    for (BrokerId leaf = 1; leaf < kBrokers; ++leaf) net.connect(0, leaf);
  } else if (name == "tree") {
    for (BrokerId child = 1; child < kBrokers; ++child) {
      net.connect((child - 1) / 2, child);  // balanced binary tree
    }
  } else if (name == "ring") {
    for (BrokerId i = 0; i < kBrokers; ++i) {
      net.connect(i, static_cast<BrokerId>((i + 1) % kBrokers));
    }
  } else {
    throw std::invalid_argument("unknown topology " + name);
  }
  return net;
}

const char* policy_name(store::CoveragePolicy policy) {
  switch (policy) {
    case store::CoveragePolicy::kNone: return "flood";
    case store::CoveragePolicy::kPairwise: return "pair";
    case store::CoveragePolicy::kGroup: return "group";
    case store::CoveragePolicy::kExact: return "exact";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const util::Flags flags(argc, argv);
  const auto subs = static_cast<std::size_t>(flags.get_int("subs", 150));
  const auto pubs = static_cast<std::size_t>(flags.get_int("pubs", 300));
  bench::Timer timer;

  bench::print_banner(std::cout, "Distributed traffic: coverage policy x topology",
                     std::to_string(kBrokers) + " brokers, " + std::to_string(subs) +
                         " subscriptions, " + std::to_string(pubs) + " publications");

  bench::TableWriter table({"topology", "policy", "sub_msgs", "suppressed",
                           "pub_msgs", "delivery", "lost"},
                          4);

  workload::ComparisonConfig stream_config;
  stream_config.attribute_count = 8;
  stream_config.min_constrained = 3;
  stream_config.max_constrained = 6;

  for (const std::string topology : {"chain", "star", "tree", "ring"}) {
    for (const auto policy :
         {store::CoveragePolicy::kNone, store::CoveragePolicy::kPairwise,
          store::CoveragePolicy::kGroup}) {
      NetworkConfig config;
      config.store.policy = policy;
      config.store.engine.delta = 1e-6;
      config.store.engine.max_iterations = 20'000;
      auto net = make_topology(topology, config);

      workload::ComparisonStream stream(stream_config, args.seed);
      util::Rng rng(args.seed ^ 0x70f0);
      for (std::size_t i = 0; i < subs; ++i) {
        net.subscribe(static_cast<BrokerId>(rng.next_below(kBrokers)),
                      stream.next());
      }
      for (std::size_t i = 0; i < pubs; ++i) {
        (void)net.publish(static_cast<BrokerId>(rng.next_below(kBrokers)),
                          workload::uniform_publication(
                              stream_config.attribute_count,
                              stream_config.domain_lo, stream_config.domain_hi,
                              rng));
      }
      table.add_row({topology, std::string(policy_name(policy)),
                     static_cast<long long>(net.metrics().subscription_messages),
                     static_cast<long long>(net.metrics().subscriptions_suppressed),
                     static_cast<long long>(net.metrics().publication_messages),
                     net.metrics().delivery_ratio(),
                     static_cast<long long>(net.metrics().notifications_lost)});
    }
  }
  bench::finish(table, args, timer);
  return 0;
}
