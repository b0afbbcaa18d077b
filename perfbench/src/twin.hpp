// The in-process twin of a TCP cluster and the correctness check that
// compares the two after the timed region.
//
// The twin is a routing::BrokerNetwork with the same overlay, seed and
// `group` policy; brokerd derives its per-broker seeds exactly like
// BrokerNetwork does, so coverage decisions (including the engine's RNG
// draws) match and delivered sets must be equal publish for publish. The
// FlatOracle is the ground truth: under `group` a delivered set may miss an
// expected id (a probabilistic YES that was wrong) but never add one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/subscription.hpp"
#include "routing/broker_network.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Builds the twin network (`group` policy, default EngineConfig).
[[nodiscard]] psc::routing::BrokerNetwork make_twin(const WorkloadSpec& spec,
                                                    const LinkList& links,
                                                    std::uint64_t seed);

struct CheckResult {
  std::size_t publishes = 0;     ///< publishes compared
  std::size_t subscribes = 0;    ///< subscribe ops replayed
  std::size_t divergences = 0;   ///< publishes whose set differs from the twin
  std::size_t extras = 0;        ///< delivered ids the oracle did not expect
  std::size_t duplicates = 0;    ///< repeated ids inside one delivered set
  std::size_t expected = 0;      ///< notifications the oracle expected
  std::size_t missed = 0;        ///< expected but not delivered
  std::uint64_t subscription_messages = 0;  ///< twin subscription hops, all ops
  std::string first_problem;

  [[nodiscard]] bool ok() const {
    return divergences == 0 && extras == 0 && duplicates == 0;
  }
};

/// Accumulates the oracle comparison of one delivered set into `result`
/// (extras, duplicates, misses). `expected` is the oracle's sorted set.
void compare_with_oracle(const std::vector<psc::core::SubscriptionId>& got,
                         const std::vector<psc::core::SubscriptionId>& expected,
                         CheckResult& result);

/// Replays the preload and the first `executed` timed ops through a fresh
/// twin and a FlatOracle, comparing each recorded TCP delivered set.
[[nodiscard]] CheckResult check_against_twin(
    const WorkloadSpec& spec, const LinkList& links, const OpStream& stream,
    std::uint64_t seed, std::size_t executed,
    const std::vector<std::vector<psc::core::SubscriptionId>>& delivered);

}  // namespace perfbench
