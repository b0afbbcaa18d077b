// The end-to-end leg: a real psc_brokerd cluster over loopback, driven in a
// closed loop through net::Cluster with one op in flight (Cluster
// serializes ops, so a second in-flight op would need a different client).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "core/subscription.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Index of an op kind in per-kind arrays.
enum OpKindIndex : std::size_t { kPublish = 0, kSubscribe = 1, kUnsubscribe = 2 };
inline constexpr std::array<const char*, 3> kOpKindNames = {"publish", "subscribe",
                                                            "unsubscribe"};

struct TcpOptions {
  std::string brokerd_path;
  std::uint64_t seed = 0;
  double seconds = 1.0;  ///< timed-region wall time
  std::size_t setups = 1;  ///< full set-ups; the last one is measured
};

struct TcpResult {
  std::vector<double> setup_seconds;  ///< spawn + handshake + preload, each
  std::size_t attempted = 0;          ///< timed ops started
  std::size_t completed = 0;          ///< timed ops that returned
  std::size_t errors = 0;             ///< ops that threw or timed out
  std::string first_error;
  double wall_seconds = 0.0;          ///< timed region
  std::vector<double> window_ops;     ///< ops completed in each second of it
  std::array<psc::util::SampleSet, 3> latency_us;  ///< by OpKindIndex
  /// Delivered set of every completed publish, in stream order.
  std::vector<std::vector<psc::core::SubscriptionId>> delivered;
  double peak_rss_mib = 0.0;  ///< max VmHWM over the broker processes
  std::size_t rss_processes = 0;
};

/// Sets the cluster up `options.setups` times (keeping the last), then runs
/// the timed stream in a closed loop until `options.seconds` elapse or the
/// stream ends. Stops at the first failed op.
[[nodiscard]] TcpResult run_tcp(const WorkloadSpec& spec, const LinkList& links,
                                const OpStream& stream, const TcpOptions& options);

}  // namespace perfbench
