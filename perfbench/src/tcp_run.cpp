#include "tcp_run.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "net/cluster.hpp"
#include "procs.hpp"

namespace perfbench {

using psc::workload::ChurnOp;
using psc::workload::ChurnOpKind;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

TcpResult run_tcp(const WorkloadSpec& spec, const LinkList& links,
                  const OpStream& stream, const TcpOptions& options) {
  TcpResult result;
  psc::net::ClusterOptions cluster_options;
  cluster_options.brokerd_path = options.brokerd_path;
  cluster_options.brokers = spec.brokers;
  cluster_options.links = links;
  cluster_options.seed = options.seed;
  cluster_options.policy = "group";

  std::unique_ptr<psc::net::Cluster> cluster;
  for (std::size_t round = 0; round < options.setups; ++round) {
    if (cluster) {
      cluster->shutdown();
      cluster.reset();
    }
    const auto start = Clock::now();
    cluster = std::make_unique<psc::net::Cluster>(cluster_options);
    cluster->start();
    for (const ChurnOp& op : stream.preload) cluster->subscribe(op.broker, op.sub);
    result.setup_seconds.push_back(seconds_since(start));
  }

  result.delivered.reserve(stream.timed.size() / 2);
  const auto region = Clock::now();
  const auto deadline =
      region + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(options.seconds));
  for (const ChurnOp& op : stream.timed) {
    if (Clock::now() >= deadline) break;
    ++result.attempted;
    const auto start = Clock::now();
    try {
      switch (op.kind) {
        case ChurnOpKind::kSubscribe:
          cluster->subscribe(op.broker, op.sub);
          result.latency_us[kSubscribe].add(seconds_since(start) * 1e6);
          break;
        case ChurnOpKind::kUnsubscribe:
          cluster->unsubscribe(op.broker, op.id);
          result.latency_us[kUnsubscribe].add(seconds_since(start) * 1e6);
          break;
        case ChurnOpKind::kPublish:
          result.delivered.push_back(cluster->publish(op.broker, op.pub));
          result.latency_us[kPublish].add(seconds_since(start) * 1e6);
          break;
        default:
          throw std::logic_error("unexpected op kind in timed stream");
      }
    } catch (const std::exception& error) {
      ++result.errors;
      result.first_error = error.what();
      break;  // the cluster's state is unknown after a failed op
    }
    ++result.completed;
    const auto window = static_cast<std::size_t>(seconds_since(region));
    if (result.window_ops.size() <= window) result.window_ops.resize(window + 1, 0.0);
    ++result.window_ops[window];
  }
  result.wall_seconds = seconds_since(region);

  for (const pid_t pid : broker_children()) {
    const double kib = peak_rss_kib(pid);
    if (kib < 0) continue;
    ++result.rss_processes;
    result.peak_rss_mib = std::max(result.peak_rss_mib, kib / 1024.0);
  }
  // After a failed op the destructor kills and reaps the brokers instead.
  if (result.errors == 0) cluster->shutdown();
  return result;
}

}  // namespace perfbench
