// Membership soak — live broker churn (join / graceful leave / crash /
// replacement, link failure and heal with rotating standby bridges)
// interleaved with subscription/publication churn, across the membership
// topology family, differentially gated against the flat oracle. The gates
// demand exact reconvergence after every partition repair: zero divergent
// publishes, zero lost deliveries, zero duplicates, zero ghost routes.
//
//   ./membership_soak [--brokers=60] [--duration=40] [--seed=2006]
//       [--policy=exact] [--latency=0.001] [--sub-rate=2.0] [--pub-rate=4.0]
//       [--join-rate=0.15] [--leave-rate=0.1] [--crash-rate=0.15]
//       [--partition-rate=0.3] [--differential=true] [--json=PATH]
//       [--topology=NAME] [--dump-dir=.] [--replay=FILE]
//
// Scale runs (the nightly leg uses --brokers=500) shrink --latency so the
// slot/cascade time contract holds without stretching op slots: the slot
// must exceed twice the worst-case cascade depth in link latencies.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "soak_common.hpp"

namespace {

using namespace psc;

/// Keeps the generator's slot contract (slot/2 must exceed the worst-case
/// cascade depth in link latencies) valid at any scale by widening the slot
/// to the next exact divisor of the epoch length when needed.
workload::ChurnConfig tune_slot(workload::ChurnConfig config,
                                std::size_t max_brokers) {
  const double need = 2.2 * static_cast<double>(max_brokers + 1) *
                      config.link_latency;
  if (config.slot < need) {
    const auto per_epoch = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.epoch_length / need));
    config.slot = config.epoch_length / static_cast<double>(per_epoch);
  }
  return config;
}

void write_json(const bench::SoakArgs& args,
                const workload::ChurnConfig& config,
                const std::vector<bench::SoakRun>& runs) {
  bench::JsonReport report(args.json_path, "membership_soak");
  bench::JsonWriter& json = report.json;
  const workload::ChurnConfig::MembershipConfig& rates = config.membership;
  json.member("seed", args.seed);
  json.member("policy", store::to_string(args.policy));
  json.begin_object("config");
  json.member("duration", config.duration);
  json.member("epoch_length", config.epoch_length);
  json.member("link_latency", config.link_latency);
  json.member("subscription_rate", config.subscription_rate);
  json.member("publication_rate", config.publication_rate);
  json.member("join_rate", rates.join_rate);
  json.member("leave_rate", rates.leave_rate);
  json.member("crash_rate", rates.crash_rate);
  json.member("partition_rate", rates.partition_rate);
  json.member("partition_mean", rates.partition_mean);
  json.member("replace_mean", rates.replace_mean);
  json.end_object();
  json.begin_array("topologies");
  for (const bench::SoakRun& run : runs) {
    const sim::ChurnReport& report = run.report;
    const sim::MembershipStats& m = report.membership;
    json.begin_object();
    json.member("name", run.name);
    bench::write_run_totals(json, run);
    json.member("duplicated", report.totals.notifications_duplicated);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.member("reannounced_subscriptions",
                report.totals.reannounced_subscriptions);
    json.member("gates_pass", bench::oracle_exact(report));
    json.begin_object("membership");
    json.member("events", std::uint64_t{m.events});
    json.member("joins", std::uint64_t{m.joins});
    json.member("leaves", std::uint64_t{m.leaves});
    json.member("crashes", std::uint64_t{m.crashes});
    json.member("replaces", std::uint64_t{m.replaces});
    json.member("link_failures", std::uint64_t{m.link_failures});
    json.member("link_heals", std::uint64_t{m.link_heals});
    json.member("replace_restored_routes",
                std::uint64_t{m.replace_restored_routes});
    json.member("replace_gap_subs", std::uint64_t{m.replace_gap_subs});
    json.member("ghost_routes", std::uint64_t{m.ghost_routes});
    json.member("final_alive_brokers", std::uint64_t{m.final_alive_brokers});
    json.end_object();
    json.member("publish_coalescing", report.publish_coalescing);
    json.member("elapsed_seconds", run.elapsed_seconds);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;
  const util::Flags flags(argc, argv);
  const bench::SoakArgs args(flags);
  const auto brokers = static_cast<std::size_t>(flags.get_int("brokers", 60));
  const bool differential = flags.get_bool("differential", true);
  const std::string dump_dir = flags.get_string("dump-dir", ".");
  const std::string replay_path = flags.get_string("replay", "");

  workload::ChurnConfig config;
  config.duration = flags.get_double("duration", 40.0);
  config.link_latency = flags.get_double("latency", 0.001);
  config.subscription_rate = flags.get_double("sub-rate", 2.0);
  config.publication_rate = flags.get_double("pub-rate", 4.0);
  config.membership.join_rate = flags.get_double("join-rate", 0.15);
  config.membership.leave_rate = flags.get_double("leave-rate", 0.1);
  config.membership.crash_rate = flags.get_double("crash-rate", 0.15);
  config.membership.partition_rate = flags.get_double("partition-rate", 0.3);
  routing::NetworkConfig net_config =
      args.network().link_latency(config.link_latency).build();

  bench::print_banner(std::cout, "membership_soak",
                      "broker churn + partition repair, oracle-gated");

  bench::TableWriter table({"topology", "brokers", "ops", "publishes",
                            "delivered", "mismatch", "dup", "ghosts", "members",
                            "joins", "crashes", "heals", "alive_end",
                            "seconds"});
  std::vector<bench::SoakRun> runs;
  std::size_t failures = 0;

  const auto run_one = [&](const std::string& name, routing::BrokerNetwork net,
                           workload::ChurnTrace trace) {
    sim::ChurnDriver::Options driver_options;
    driver_options.differential = differential;
    runs.push_back(bench::run_soak(name, args.seed, net, std::move(trace),
                                   driver_options));
    const bench::SoakRun& run = runs.back();
    const sim::ChurnReport& report = run.report;
    const sim::MembershipStats& m = report.membership;
    using bench::count;
    table.add_row({run.name, count(run.brokers), count(report.ops),
                   count(report.publishes),
                   count(report.totals.notifications_delivered),
                   count(report.mismatched_publishes),
                   count(report.totals.notifications_duplicated),
                   count(m.ghost_routes), count(m.events), count(m.joins),
                   count(m.crashes), count(m.link_heals),
                   count(m.final_alive_brokers), run.elapsed_seconds});
    if (differential && !bench::oracle_exact(report)) {
      bench::dump_gate_failure("membership_soak", dump_dir, run, args.policy)
          << " --latency=" << config.link_latency << "\n";
      ++failures;
    }
  };

  if (!replay_path.empty()) {
    auto trace = bench::read_membership_trace(replay_path);
    if (!trace) return 2;
    net_config.link_latency = trace->config.link_latency;
    auto net = bench::build_from_universe(trace->universe, net_config);
    run_one("replay", std::move(net), std::move(*trace));
  } else {
    for (const routing::MembershipTopology& topology :
         routing::membership_topologies(brokers, args.seed)) {
      if (!args.selects(topology.name)) continue;
      workload::ChurnConfig shaped = config;
      // Bound join growth so the slot contract stays tight at scale.
      shaped.membership.max_brokers =
          topology.brokers + std::max<std::size_t>(8, topology.brokers / 16);
      shaped = tune_slot(shaped, shaped.membership.max_brokers);
      routing::BrokerNetwork net = topology.build(net_config);
      const routing::MembershipUniverse universe = topology.universe(net);
      run_one(topology.name, std::move(net),
              workload::generate_churn_trace(shaped, universe, args.seed));
    }
  }
  table.print(std::cout);
  if (!args.json_path.empty()) write_json(args, config, runs);

  if (failures > 0) return bench::gate_status(failures);
  std::cout << "\nall membership gates passed\n";
  return 0;
}
