// Scaffolding shared by the ChurnDriver soaks (churn_soak, recovery_soak,
// membership_soak, lossy_soak): the churn-rate and wire-fault flags, the
// lossy settle-slot derivation, one timed driver run, the JSON report frame
// with its per-run totals, and the gate-failure trace dump.
//
// Failure reproducibility: a run that trips its gate has its trace dumped
// as a PSCT file (membership traces embed their overlay universe, fault
// rates and burst schedule) and the one-liner that replays it printed.
// Flags the trace does not record (the overlay, the wire and link-protocol
// settings) ride that line.
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "routing/broker_network.hpp"
#include "routing/link_channel.hpp"
#include "routing/topology.hpp"
#include "sim/churn_driver.hpp"

namespace psc::bench {

/// The flags every soak reads the same way.
struct SoakArgs {
  std::uint64_t seed;
  store::CoveragePolicy policy;
  std::string json_path;
  std::string topology_filter;  ///< substring filter on topology names

  explicit SoakArgs(const util::Flags& flags)
      : seed(static_cast<std::uint64_t>(flags.get_int("seed", 2006))),
        policy(store::parse_coverage_policy(flags.get_string("policy", "exact"))),
        json_path(flags.get_string("json", "")),
        topology_filter(flags.get_string("topology", "")) {}

  [[nodiscard]] bool selects(const std::string& topology) const {
    return topology_filter.empty() ||
           topology.find(topology_filter) != std::string::npos;
  }

  /// Network config with this run's coverage policy.
  [[nodiscard]] routing::NetworkConfig::Builder network() const {
    store::StoreConfig store_config;
    store_config.policy = policy;
    return routing::NetworkConfig::Builder().store(store_config);
  }
};

/// Reads --drop/--dup/--reorder/--jitter; the arguments are the defaults.
inline sim::LinkFaultConfig read_fault_flags(const util::Flags& flags,
                                             double drop, double dup,
                                             double reorder, double jitter) {
  sim::LinkFaultConfig faults;
  faults.drop_probability = flags.get_double("drop", drop);
  faults.dup_probability = flags.get_double("dup", dup);
  faults.reorder_probability = flags.get_double("reorder", reorder);
  faults.delay_jitter = flags.get_double("jitter", jitter);
  return faults;
}

/// The churn-rate and fault flags churn_soak and recovery_soak share.
inline workload::ChurnConfig read_churn_flags(const util::Flags& flags) {
  workload::ChurnConfig config;
  config.duration = flags.get_double("duration", 60.0);
  config.subscription_rate = flags.get_double("sub-rate", 2.0);
  config.publication_rate = flags.get_double("pub-rate", 5.0);
  config.ttl_fraction = flags.get_double("ttl-fraction", 0.5);
  config.faults.link = read_fault_flags(flags, 0.0, 0.0, 0.0, 0.0);
  return config;
}

/// Slot sizing over lossy wires: half a slot must clear the worst-case
/// cascade across `max_brokers`, where one hop can cost the whole
/// retransmit-backoff chain. Otherwise cascades bleed into the next op's
/// settle point and the trace validator rejects the schedule.
inline void shape_lossy_slot(workload::ChurnConfig& config,
                             const routing::LinkConfig& link,
                             std::size_t max_brokers) {
  config.faults.cascade_hop_bound = link.worst_hop_delay(config.link_latency);
  config.slot = 2.2 * static_cast<double>(max_brokers + 1) *
                config.faults.cascade_hop_bound;
  config.epoch_length = config.slot * 50;
}

/// Per-topology configs of churn_soak and recovery_soak. With any fault
/// rate set, the wire runs the reliable link protocol and the slot is
/// re-derived for it. Empty (after saying why) when --duration cannot hold
/// one such slot.
struct TopologyConfigs {
  routing::NetworkConfig net;
  workload::ChurnConfig churn;
};
inline std::optional<TopologyConfigs> standard_topology_configs(
    const SoakArgs& args, workload::ChurnConfig churn,
    const routing::Topology& topology) {
  TopologyConfigs out{args.network().build(), std::move(churn)};
  out.churn.link_latency = out.net.link_latency;
  if (!out.churn.faults.any()) return out;
  out.net.link.enabled = true;
  out.net.link.faults = out.churn.faults.link;
  out.net.seed = args.seed;
  shape_lossy_slot(out.churn, out.net.link, topology.brokers);
  if (out.churn.slot > out.churn.duration) {
    std::cerr << "FAIL: --duration=" << out.churn.duration
              << " is shorter than the lossy settle slot (" << out.churn.slot
              << "s) that " << topology.name << " needs for a worst-case "
              << "retransmit cascade; rerun with --duration >= "
              << out.churn.slot << "\n";
    return std::nullopt;
  }
  return out;
}

/// Reads a membership soak's --replay trace; empty (after saying why) when
/// it embeds no overlay universe.
inline std::optional<workload::ChurnTrace> read_membership_trace(
    const std::string& path) {
  workload::ChurnTrace trace = read_trace_file(path);
  if (trace.has_membership) return trace;
  std::cerr << "replay file has no membership universe: " << path << "\n";
  return std::nullopt;
}

/// Rebuilds the overlay a membership trace was generated against: brokers
/// and live links from its embedded universe (the driver registers the
/// standby bridges itself).
inline routing::BrokerNetwork build_from_universe(
    const routing::MembershipUniverse& universe,
    const routing::NetworkConfig& config) {
  routing::BrokerNetwork net(config);
  for (std::size_t i = 0; i < universe.brokers; ++i) (void)net.add_broker();
  for (const auto& [a, b] : universe.links) net.connect(a, b);
  return net;
}

/// The oracle gates of the membership soaks: no divergent publish, lost or
/// duplicated delivery, or ghost route.
inline bool oracle_exact(const sim::ChurnReport& report) {
  return report.mismatched_publishes == 0 &&
         report.totals.notifications_lost == 0 &&
         report.totals.notifications_duplicated == 0 &&
         report.membership.ghost_routes == 0;
}

/// A counter as a table cell.
inline Cell count(std::uint64_t n) { return static_cast<long long>(n); }

/// One timed ChurnDriver replay.
struct SoakRun {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t brokers = 0;
  workload::ChurnTrace trace;
  sim::ChurnReport report;
  double elapsed_seconds = 0.0;
};

/// Replays `trace` on `net`; only the driver itself is timed.
inline SoakRun run_soak(std::string name, std::uint64_t seed,
                        routing::BrokerNetwork& net, workload::ChurnTrace trace,
                        const sim::ChurnDriver::Options& options) {
  const std::size_t brokers = trace.broker_count;
  SoakRun run{std::move(name), seed, brokers, std::move(trace), {}, 0.0};
  const Timer timer;
  run.report = sim::ChurnDriver::run(net, run.trace, options);
  run.elapsed_seconds = timer.elapsed_seconds();
  return run;
}

inline void write_fault_rates(JsonWriter& json,
                              const sim::LinkFaultConfig& faults) {
  json.member("drop", faults.drop_probability);
  json.member("dup", faults.dup_probability);
  json.member("reorder", faults.reorder_probability);
  json.member("jitter", faults.delay_jitter);
}

/// The totals every soak reports per run, from "brokers" to "lost".
inline void write_run_totals(JsonWriter& json, const SoakRun& run) {
  json.member("brokers", std::uint64_t{run.brokers});
  json.member("ops", std::uint64_t{run.report.ops});
  json.member("publishes", std::uint64_t{run.report.publishes});
  json.member("delivered", run.report.totals.notifications_delivered);
  json.member("lost", run.report.totals.notifications_lost);
}

/// Dumps the trace of a run that tripped its gate as a PSCT file under
/// `dump_dir` and prints its counters and the command that replays it.
/// Returns std::cerr mid-line: the caller appends the flags the trace does
/// not record (the overlay, wire and link-protocol settings) and ends it.
inline std::ostream& dump_gate_failure(std::string_view bench,
                                       const std::string& dump_dir,
                                       const SoakRun& run,
                                       store::CoveragePolicy policy) {
  const std::string dump = dump_dir + "/" + std::string(bench) + "_fail_" +
                           run.name + "_" + std::to_string(run.seed) + ".psct";
  write_trace_file(dump, run.trace);
  const sim::ChurnReport& report = run.report;
  return std::cerr << "\nGATE FAILURE on " << run.name << " (seed " << run.seed
                   << ", policy " << store::to_string(policy) << "):\n"
                   << "  mismatched=" << report.mismatched_publishes
                   << " lost=" << report.totals.notifications_lost
                   << " duplicated=" << report.totals.notifications_duplicated
                   << " ghosts=" << report.membership.ghost_routes
                   << " dropped=" << report.totals.frames_dropped
                   << " retransmits=" << report.totals.retransmits << "\n"
                   << "  trace dumped; replay with:\n"
                   << "    ./" << bench << " --replay=" << dump
                   << " --seed=" << run.seed
                   << " --policy=" << store::to_string(policy);
}

/// Exit status of a gated soak: 1, after saying so, when any run tripped.
inline int gate_status(std::size_t failures) {
  if (failures == 0) return 0;
  std::cerr << "\nFAIL: gates tripped on " << failures << " run(s)\n";
  return 1;
}

}  // namespace psc::bench
