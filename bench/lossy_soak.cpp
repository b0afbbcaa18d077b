// Lossy soak — subscription/publication/membership churn replayed over
// UNRELIABLE wires: every directed link injects seeded iid drop / dup /
// reorder / jitter faults plus scripted burst-loss windows, and the
// reliable link protocol (per-link sequencing, cumulative acks,
// retransmit with exponential backoff, receiver dedup/reorder windows)
// must make all of it invisible to the application. The run is
// differentially gated against the flat oracle across the membership
// topology family and multiple seeds: zero divergent publishes, zero
// lost deliveries, zero duplicates, zero ghost routes — with the fault
// counters proving the wire was actually hostile, and the scripted
// bursts forcing retry-cap escalations into the fail_link degradation
// path (which the driver mirrors into the oracle).
//
//   ./lossy_soak [--brokers=24] [--ops=400] [--seeds=3] [--seed=2006]
//       [--policy=exact] [--latency=0.0001] [--drop=0.2] [--dup=0.1]
//       [--reorder=0.1] [--jitter=0.5] [--bursts=4] [--burst-slots=2.5]
//       [--rto=0] [--rto-max=0] [--retries=12] [--window=128]
//       [--sub-rate=2.0] [--pub-rate=4.0] [--membership=true]
//       [--differential=true] [--json=PATH] [--topology=NAME]
//       [--dump-dir=.] [--replay=FILE]
//
// The op slot is derived from the protocol's worst-case hop time
// (LinkConfig::worst_hop_delay: the full retransmit-backoff chain plus
// jitter/reorder delays), so cascades — including retransmit storms —
// always quiesce inside half a slot. Sim-seconds are free; --ops fixes
// the amount of work per run.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "soak_common.hpp"

namespace {

using namespace psc;

/// Oracle exactness through every fault and escalation, and proof the
/// protocol actually fought a hostile wire.
bool gates_pass(const sim::ChurnReport& report) {
  const sim::Metrics& m = report.totals;
  return bench::oracle_exact(report) && m.frames_dropped > 0 &&
         m.retransmits > 0 && m.acks_sent > 0;
}

void write_json(const bench::SoakArgs& args,
                const workload::ChurnConfig& config,
                const routing::LinkConfig& link,
                const std::vector<bench::SoakRun>& runs) {
  bench::JsonReport report(args.json_path, "lossy_soak");
  bench::JsonWriter& json = report.json;
  json.member("policy", store::to_string(args.policy));
  json.begin_object("config");
  json.member("link_latency", config.link_latency);
  bench::write_fault_rates(json, link.faults);
  json.member("burst_count", std::uint64_t{config.faults.burst_count});
  json.member("burst_length", config.faults.burst_length);
  json.member("rto", link.effective_rto(config.link_latency));
  json.member("rto_max", link.effective_rto_max(config.link_latency));
  json.member("max_retries", std::uint64_t{link.max_retries});
  json.member("window", std::uint64_t{link.window});
  json.end_object();
  json.begin_array("runs");
  for (const bench::SoakRun& run : runs) {
    const sim::ChurnReport& report = run.report;
    const sim::Metrics& m = report.totals;
    json.begin_object();
    json.member("name", run.name);
    json.member("seed", run.seed);
    // Shaped per run: the slot scales with this overlay's broker cap
    // and the protocol's worst-case hop delay (rto chain + jitter).
    json.member("slot", run.trace.config.slot);
    json.member("cascade_hop_bound", run.trace.config.faults.cascade_hop_bound);
    bench::write_run_totals(json, run);
    json.member("duplicated", m.notifications_duplicated);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.member("ghost_routes", std::uint64_t{report.membership.ghost_routes});
    json.member("publish_coalescing", report.publish_coalescing);
    json.begin_object("link_protocol");
    json.member("frames_dropped", m.frames_dropped);
    json.member("frames_duplicated", m.frames_duplicated);
    json.member("retransmits", m.retransmits);
    json.member("dups_suppressed", m.dups_suppressed);
    json.member("reorders_healed", m.reorders_healed);
    json.member("acks_sent", m.acks_sent);
    json.member("backpressure_stalls", m.backpressure_stalls);
    json.member("link_escalations",
                std::uint64_t{report.membership.link_escalations});
    json.member("skipped_link_failures",
                std::uint64_t{report.membership.skipped_link_failures});
    json.member("skipped_link_heals",
                std::uint64_t{report.membership.skipped_link_heals});
    json.end_object();
    json.member("gates_pass", gates_pass(report));
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
  const auto brokers = static_cast<std::size_t>(flags.get_int("brokers", 24));
  const auto ops = static_cast<std::size_t>(flags.get_int("ops", 400));
  const auto seed_count = static_cast<std::size_t>(flags.get_int("seeds", 3));
  const bool differential = flags.get_bool("differential", true);
  const bool with_membership = flags.get_bool("membership", true);
  const std::string dump_dir = flags.get_string("dump-dir", ".");
  const std::string replay_path = flags.get_string("replay", "");

  workload::ChurnConfig config;
  config.link_latency = flags.get_double("latency", 0.0001);
  config.subscription_rate = flags.get_double("sub-rate", 2.0);
  config.publication_rate = flags.get_double("pub-rate", 4.0);
  config.faults.link = bench::read_fault_flags(flags, 0.2, 0.1, 0.1, 0.5);
  config.faults.burst_count =
      static_cast<std::size_t>(flags.get_int("bursts", 4));

  routing::LinkConfig link;
  link.enabled = true;
  // Default to a short explicit chain (4x/8x latency instead of the
  // 4x/32x auto-derivation) so the slot — which scales with the whole
  // chain — stays dense. 4x is the floor that avoids systematic spurious
  // retransmits: an ack round trip is ~3 latencies (data flight +
  // delayed-ack timer + ack flight), so rto=2x fires one useless
  // retransmit per frame. The retry cap stays at 12: an escalation from
  // iid loss alone needs 13 consecutive silent rounds (~0.2^13).
  link.rto = flags.get_double("rto", 4.0 * config.link_latency);
  link.rto_max = flags.get_double("rto-max", 8.0 * config.link_latency);
  link.max_retries = static_cast<std::size_t>(flags.get_int("retries", 12));
  link.window = static_cast<std::size_t>(flags.get_int("window", 128));
  link.faults = config.faults.link;
  routing::NetworkConfig net_config =
      args.network().link_latency(config.link_latency).link(link).build();

  bench::print_banner(std::cout, "lossy_soak",
                      "drop/dup/reorder/burst wire faults, oracle-gated");

  bench::TableWriter table({"topology", "seed", "brokers", "ops", "publishes",
                            "delivered", "mismatch", "dup", "ghosts", "dropped",
                            "retx", "dupsup", "escal", "seconds"});
  std::vector<bench::SoakRun> runs;
  std::size_t failures = 0;
  bool any_bursts_scripted = false;

  const auto run_one = [&](const std::string& name, std::uint64_t seed,
                           routing::BrokerNetwork net, workload::ChurnTrace trace) {
    any_bursts_scripted |= !trace.bursts.empty();
    sim::ChurnDriver::Options driver_options;
    driver_options.differential = differential;
    runs.push_back(
        bench::run_soak(name, seed, net, std::move(trace), driver_options));
    const bench::SoakRun& run = runs.back();
    const sim::ChurnReport& report = run.report;
    const sim::Metrics& totals = report.totals;
    using bench::count;
    table.add_row({run.name, count(seed), count(run.brokers), count(report.ops),
                   count(report.publishes),
                   count(totals.notifications_delivered),
                   count(report.mismatched_publishes),
                   count(totals.notifications_duplicated),
                   count(report.membership.ghost_routes),
                   count(totals.frames_dropped), count(totals.retransmits),
                   count(totals.dups_suppressed),
                   count(report.membership.link_escalations),
                   run.elapsed_seconds});
    if (differential && !gates_pass(report)) {
      bench::dump_gate_failure("lossy_soak", dump_dir, run, args.policy)
          << " --rto=" << link.rto << " --rto-max=" << link.rto_max
          << " --retries=" << link.max_retries << " --window=" << link.window
          << "\n";
      ++failures;
    }
  };

  if (!replay_path.empty()) {
    auto trace = bench::read_membership_trace(replay_path);
    if (!trace) return 2;
    config = trace->config;  // the dump carries slot/faults/rates verbatim
    net_config.link_latency = config.link_latency;
    net_config.link.faults = config.faults.link;
    net_config.seed = trace->seed;
    auto net = bench::build_from_universe(trace->universe, net_config);
    run_one("replay", trace->seed, std::move(net), std::move(*trace));
  } else {
    for (const routing::MembershipTopology& topology :
         routing::membership_topologies(brokers, args.seed)) {
      if (!args.selects(topology.name)) continue;
      for (std::size_t s = 0; s < seed_count; ++s) {
        const std::uint64_t seed = args.seed + s;
        workload::ChurnConfig shaped = config;
        shaped.membership.max_brokers =
            topology.brokers + std::max<std::size_t>(8, topology.brokers / 16);
        bench::shape_lossy_slot(shaped, link, shaped.membership.max_brokers);
        shaped.duration = shaped.slot * static_cast<double>(ops);
        if (with_membership) {
          // Per-slot event budgets, expressed against the derived slot
          // width so the trace sees the same churn density at any scale.
          shaped.membership.join_rate = 0.2 / shaped.slot;
          shaped.membership.leave_rate = 0.15 / shaped.slot;
          shaped.membership.crash_rate = 0.2 / shaped.slot;
          shaped.membership.partition_rate = 0.4 / shaped.slot;
        }
        // Bursts span multiple slots so any frame sent into one exhausts
        // a full retransmit chain deterministically.
        shaped.faults.burst_length =
            shaped.slot * flags.get_double("burst-slots", 2.5);
        routing::NetworkConfig run_config = net_config;
        run_config.seed = seed;  // per-seed fault substreams
        routing::BrokerNetwork net = topology.build(run_config);
        const routing::MembershipUniverse universe = topology.universe(net);
        run_one(topology.name, seed, std::move(net),
                workload::generate_churn_trace(shaped, universe, seed));
      }
    }
  }
  table.print(std::cout);

  // Escalation coverage is a matrix-level gate: each scripted burst only
  // forces an escalation if traffic crosses its link inside the window,
  // but across topologies x seeds the degradation path must fire.
  std::size_t total_escalations = 0;
  for (const bench::SoakRun& run : runs) {
    total_escalations += run.report.membership.link_escalations;
  }
  if (differential && any_bursts_scripted && total_escalations == 0) {
    std::cerr << "\nFAIL: scripted bursts never escalated into fail_link\n";
    ++failures;
  }
  if (!args.json_path.empty()) write_json(args, config, link, runs);

  if (failures > 0) return bench::gate_status(failures);
  std::cout << "\nall lossy-link gates passed (" << runs.size() << " runs, "
            << total_escalations << " escalations mirrored)\n";
  return 0;
}
