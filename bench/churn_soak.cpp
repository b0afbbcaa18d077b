// Churn soak — sustained open-workload churn over the standard topology
// family, with a per-epoch metrics time series and machine-readable JSON
// output so successive PRs can track the trajectory.
//
//   ./churn_soak [--duration=60] [--seed=2006] [--policy=exact]
//                [--sub-rate=2.0] [--pub-rate=5.0] [--ttl-fraction=0.5]
//                [--shards=1] [--differential=true] [--pipelined=false]
//                [--drop=0] [--dup=0] [--reorder=0] [--jitter=0]
//                [--json=PATH]
//                [--topology=NAME]   (substring filter, e.g. "grid")
//                [--dump-dir=.] [--replay=FILE]
//
// Nonzero --drop/--dup/--reorder/--jitter run the soak over lossy wires
// behind the reliable link protocol (routing/link_channel.hpp): the slot
// is re-derived per topology from the protocol's worst-case hop delay so
// retransmit chains quiesce between ops, and the differential gate then
// additionally demands the wire was actually hostile. bench/lossy_soak is
// the dedicated fault matrix; these flags exist so the plain churn soak
// can be spot-checked under loss without switching harnesses.
//
// --pipelined coalesces runs of consecutive publish ops into one batch
// publish (sim::ChurnDriver::Options::pipelined_publish), which the network
// routes through its staged PublishPipeline on perfect links.
//
// Every run replays the same seeded trace per topology, so two runs with
// equal flags produce identical counters; wall-clock timing is the only
// nondeterministic field in the JSON.
#include <iostream>
#include <string>

#include "soak_common.hpp"

namespace {

using namespace psc;

void write_json(const bench::SoakArgs& args,
                const workload::ChurnConfig& config,
                const std::vector<bench::SoakRun>& runs) {
  bench::JsonReport report(args.json_path, "churn_soak");
  bench::JsonWriter& json = report.json;
  json.member("seed", args.seed);
  json.member("policy", store::to_string(args.policy));
  json.begin_object("config");
  json.member("duration", config.duration);
  json.member("epoch_length", config.epoch_length);
  json.member("subscription_rate", config.subscription_rate);
  json.member("publication_rate", config.publication_rate);
  json.member("ttl_fraction", config.ttl_fraction);
  json.member("immortal_fraction", config.immortal_fraction);
  json.member("mean_lifetime", config.mean_lifetime);
  json.member("attribute_count", std::uint64_t{config.attribute_count});
  json.member("hotspot_count", std::uint64_t{config.hotspot_count});
  json.member("zipf_skew", config.zipf_skew);
  bench::write_fault_rates(json, config.faults.link);
  json.end_object();
  json.begin_array("topologies");
  for (const bench::SoakRun& run : runs) {
    const sim::ChurnReport& report = run.report;
    json.begin_object();
    json.member("name", run.name);
    bench::write_run_totals(json, run);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.member("messages", report.totals.total_messages());
    json.member("suppressed", report.totals.subscriptions_suppressed);
    json.member("peak_routing_entries", std::uint64_t{report.peak_routing_entries});
    json.member("publish_coalescing", report.publish_coalescing);
    json.member("frames_dropped", report.totals.frames_dropped);
    json.member("retransmits", report.totals.retransmits);
    json.member("dups_suppressed", report.totals.dups_suppressed);
    json.member("link_escalations",
                std::uint64_t{report.membership.link_escalations});
    json.member("elapsed_seconds", run.elapsed_seconds);
    json.begin_array("epochs");
    for (const sim::ChurnEpoch& epoch : report.epochs) {
      json.begin_object();
      json.member("end_time", epoch.end_time);
      json.member("ops", std::uint64_t{epoch.ops});
      json.member("publishes", std::uint64_t{epoch.publishes});
      json.member("delivered", epoch.delivered);
      json.member("lost", epoch.lost);
      json.member("live_subscriptions", std::uint64_t{epoch.live_subscriptions});
      json.member("routing_entries", std::uint64_t{epoch.routing_entries});
      json.member("forwarded_entries", std::uint64_t{epoch.forwarded_entries});
      json.member("forwarded_active", std::uint64_t{epoch.forwarded_active});
      json.member("subscription_messages", epoch.subscription_messages);
      json.member("unsubscription_messages", epoch.unsubscription_messages);
      json.member("publication_messages", epoch.publication_messages);
      json.member("suppressed", epoch.suppressed);
      json.member("hops_per_publication", epoch.hops_per_publication());
      json.member("mismatched_publishes", epoch.mismatched_publishes);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;
  const util::Flags flags(argc, argv);
  const bench::SoakArgs args(flags);
  const workload::ChurnConfig config = bench::read_churn_flags(flags);
  const bool pipelined = flags.get_bool("pipelined", false);
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  const bool differential = flags.get_bool("differential", true);
  const std::string dump_dir = flags.get_string("dump-dir", ".");
  const std::string replay_path = flags.get_string("replay", "");
  if (!replay_path.empty() && args.topology_filter.empty()) {
    std::cerr << "--replay needs --topology=NAME to pick the overlay the "
                 "trace was recorded against\n";
    return 2;
  }

  bench::print_banner(std::cout, "churn_soak",
                      "open-workload churn across the standard topologies");

  bench::TableWriter table({"topology", "brokers", "ops", "publishes",
                            "delivered", "lost", "mismatch", "messages",
                            "suppressed", "peak_routing", "live_end",
                            "seconds"});
  std::vector<bench::SoakRun> runs;
  std::size_t failures = 0;
  for (routing::Topology& topology : routing::standard_topologies(args.seed)) {
    if (!args.selects(topology.name)) continue;
    const auto configs =
        bench::standard_topology_configs(args, shards, config, topology);
    if (!configs) return 1;
    auto net = topology.build(configs->net);
    sim::ChurnDriver::Options driver_options;
    driver_options.differential = differential;
    driver_options.pipelined_publish = pipelined;
    runs.push_back(bench::run_soak(
        topology.name, args.seed, net,
        replay_path.empty() ? workload::generate_churn_trace(
                                  configs->churn, topology.brokers, args.seed)
                            : bench::read_trace_file(replay_path),
        driver_options));

    const bench::SoakRun& run = runs.back();
    const sim::ChurnReport& report = run.report;
    using bench::count;
    table.add_row({run.name, count(run.brokers), count(report.ops),
                   count(report.publishes),
                   count(report.totals.notifications_delivered),
                   count(report.totals.notifications_lost),
                   count(report.mismatched_publishes),
                   count(report.totals.total_messages()),
                   count(report.totals.subscriptions_suppressed),
                   count(report.peak_routing_entries),
                   count(report.final_live_subscriptions),
                   run.elapsed_seconds});
    // With the differential oracle on, the soak doubles as a gate: any
    // divergence or lost notification fails the run (CI smoke relies on
    // this). Under --policy=group losses bounded by delta are legal — run
    // with --differential=false to soak group without gating.
    if (differential && (report.mismatched_publishes > 0 ||
                         report.totals.notifications_lost > 0)) {
      std::ostream& replay =
          bench::dump_gate_failure("churn_soak", dump_dir, run, args.policy)
          << " --topology=" << run.name << " --shards=" << shards;
      // Fault rates ride the trace, but the wire config (and its seed)
      // rides the command line — repeat it for a faithful replay.
      const sim::LinkFaultConfig& faults = config.faults.link;
      if (faults.any()) {
        replay << " --drop=" << faults.drop_probability
               << " --dup=" << faults.dup_probability
               << " --reorder=" << faults.reorder_probability
               << " --jitter=" << faults.delay_jitter;
      }
      replay << "\n";
      ++failures;
    }
  }
  table.print(std::cout);
  if (!args.json_path.empty()) write_json(args, config, runs);
  return bench::gate_status(failures);
}
