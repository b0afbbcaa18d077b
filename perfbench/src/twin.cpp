#include "twin.hpp"

#include <algorithm>
#include <iterator>

#include "routing/flat_oracle.hpp"

namespace perfbench {

using psc::core::SubscriptionId;
using psc::workload::ChurnOp;
using psc::workload::ChurnOpKind;

psc::routing::BrokerNetwork make_twin(const WorkloadSpec& spec,
                                      const LinkList& links, std::uint64_t seed) {
  psc::store::StoreConfig store;
  store.policy = psc::store::CoveragePolicy::kGroup;
  psc::routing::BrokerNetwork net(
      psc::routing::NetworkConfig::Builder().seed(seed).store(store).build());
  for (std::size_t b = 0; b < spec.brokers; ++b) (void)net.add_broker();
  for (const auto& [a, b] : links) net.connect(a, b);
  return net;
}

void compare_with_oracle(const std::vector<SubscriptionId>& got,
                         const std::vector<SubscriptionId>& expected,
                         CheckResult& result) {
  std::vector<SubscriptionId> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  const auto unique_end = std::unique(sorted.begin(), sorted.end());
  result.duplicates += static_cast<std::size_t>(sorted.end() - unique_end);
  sorted.erase(unique_end, sorted.end());

  std::vector<SubscriptionId> extra;
  std::set_difference(sorted.begin(), sorted.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  result.extras += extra.size();
  result.expected += expected.size();
  result.missed += expected.size() - (sorted.size() - extra.size());
}

CheckResult check_against_twin(
    const WorkloadSpec& spec, const LinkList& links, const OpStream& stream,
    std::uint64_t seed, std::size_t executed,
    const std::vector<std::vector<SubscriptionId>>& delivered) {
  CheckResult result;
  auto twin = make_twin(spec, links, seed);
  psc::routing::FlatOracle oracle;
  for (const ChurnOp& op : stream.preload) {
    twin.subscribe(op.broker, op.sub);
    oracle.subscribe(op.broker, op.sub);
  }
  twin.reset_metrics();

  std::vector<SubscriptionId> expected;
  for (std::size_t i = 0; i < executed; ++i) {
    const ChurnOp& op = stream.timed[i];
    switch (op.kind) {
      case ChurnOpKind::kSubscribe:
        twin.subscribe(op.broker, op.sub);
        oracle.subscribe(op.broker, op.sub);
        ++result.subscribes;
        break;
      case ChurnOpKind::kUnsubscribe:
        twin.unsubscribe(op.broker, op.id);
        oracle.unsubscribe(op.broker, op.id);
        break;
      case ChurnOpKind::kPublish: {
        const std::vector<SubscriptionId>& got = delivered.at(result.publishes);
        const std::vector<SubscriptionId> want = twin.publish(op.broker, op.pub);
        oracle.publish(op.pub, expected);
        if (got != want) {
          ++result.divergences;
          if (result.first_problem.empty()) {
            result.first_problem = "publish #" + std::to_string(result.publishes) +
                                   " (op " + std::to_string(i) +
                                   ") differs from the in-process twin";
          }
        }
        compare_with_oracle(got, expected, result);
        ++result.publishes;
        break;
      }
      default:
        break;
    }
  }
  // Subscription hops of subscribe cascades plus the promotion
  // re-announcements unsubscribes send (metrics were reset after preload).
  result.subscription_messages = twin.metrics().subscription_messages;
  if (result.first_problem.empty() && (result.extras > 0 || result.duplicates > 0)) {
    result.first_problem = "delivered sets hold ids the oracle did not expect";
  }
  return result;
}

}  // namespace perfbench
