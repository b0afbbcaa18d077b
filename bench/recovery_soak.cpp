// Recovery soak — the crash-recovery scenario class over the standard
// topology family: every topology runs a churn trace with the differential
// oracle ON and failure injection enabled, so mid-churn the whole broker
// state is killed and recovered from its last snapshot plus a WAL replay
// of the gap ops. The run GATES on full recovery fidelity:
//   * zero differential mismatches (pre- and post-crash publishes),
//   * zero replay mismatches (every replayed publish re-delivers exactly
//     the oracle set recorded in its first life),
//   * zero lost notifications, and
//   * the crash actually fired on every topology.
//
//   ./recovery_soak [--duration=60] [--seed=2006] [--policy=exact]
//                   [--snapshot-every=0]     (sim-seconds; 0 = epoch length)
//                   [--kill-fraction=0.5]    (kill at fraction of duration)
//                   [--drop=0] [--dup=0] [--reorder=0] [--jitter=0]
//                   [--shards=1] [--json=PATH] [--topology=NAME]
//
// Nonzero fault flags run the crash/recovery discipline over lossy wires
// behind the reliable link protocol; the slot is re-derived per topology
// from the protocol's worst-case hop delay (see bench/churn_soak.cpp).
// No burst windows are scripted here, so the retry cap is never exhausted
// and recovery fidelity is tested orthogonally to link escalation.
#include <iostream>
#include <string>
#include <vector>

#include "soak_common.hpp"

namespace {

using namespace psc;

void write_json(const bench::SoakArgs& args,
                const workload::ChurnConfig& config,
                const sim::ChurnDriver::FailureInjection& failure,
                const std::vector<bench::SoakRun>& runs) {
  bench::JsonReport report(args.json_path, "recovery_soak");
  bench::JsonWriter& json = report.json;
  json.member("seed", args.seed);
  json.member("policy", store::to_string(args.policy));
  json.begin_object("config");
  json.member("duration", config.duration);
  json.member("epoch_length", config.epoch_length);
  json.member("subscription_rate", config.subscription_rate);
  json.member("publication_rate", config.publication_rate);
  json.member("snapshot_every", failure.snapshot_every);
  json.member("kill_time", failure.kill_time);
  bench::write_fault_rates(json, config.faults.link);
  json.end_object();
  json.begin_array("topologies");
  for (const bench::SoakRun& run : runs) {
    const sim::ChurnReport& report = run.report;
    const sim::RecoveryStats& recovery = report.recovery;
    json.begin_object();
    json.member("name", run.name);
    bench::write_run_totals(json, run);
    json.member("mismatched_publishes", report.mismatched_publishes);
    json.begin_object("recovery");
    json.member("snapshots", std::uint64_t{recovery.snapshots});
    json.member("snapshot_bytes", std::uint64_t{recovery.snapshot_bytes});
    json.member("crashes", std::uint64_t{recovery.crashes});
    json.member("gap_ops_replayed", std::uint64_t{recovery.gap_ops_replayed});
    json.member("gap_publishes_replayed",
                std::uint64_t{recovery.gap_publishes_replayed});
    json.member("replay_mismatches", recovery.replay_mismatches);
    json.member("recovery_sim_gap", recovery.recovery_sim_gap);
    json.end_object();
    json.member("frames_dropped", report.totals.frames_dropped);
    json.member("retransmits", report.totals.retransmits);
    json.member("dups_suppressed", report.totals.dups_suppressed);
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
  const workload::ChurnConfig config = bench::read_churn_flags(flags);
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  sim::ChurnDriver::Options options;
  options.differential = true;
  options.failure.enabled = true;
  options.failure.snapshot_every = flags.get_double("snapshot-every", 0.0);
  // Land the kill mid-cadence (half a snapshot interval past the fraction
  // point) so the recovery always replays a non-trivial WAL gap instead of
  // restoring a snapshot taken at the kill instant itself.
  const double cadence = options.failure.snapshot_every > 0
                             ? options.failure.snapshot_every
                             : config.epoch_length;
  options.failure.kill_time =
      config.duration * flags.get_double("kill-fraction", 0.5) + cadence / 2;

  bench::print_banner(std::cout, "recovery_soak",
                      "mid-churn crash + snapshot/WAL recovery, differential-gated");

  bench::TableWriter table({"topology", "brokers", "ops", "publishes",
                            "mismatch", "lost", "snapshots", "snap_bytes",
                            "gap_ops", "replay_mismatch", "seconds"});
  std::vector<bench::SoakRun> runs;
  for (routing::Topology& topology : routing::standard_topologies(args.seed)) {
    if (!args.selects(topology.name)) continue;
    // Same slot discipline as churn_soak: over lossy wires every op (and
    // the snapshot taken at each epoch close) observes a quiescent wire.
    const auto configs =
        bench::standard_topology_configs(args, shards, config, topology);
    if (!configs) return 1;
    auto net = topology.build(configs->net);
    runs.push_back(bench::run_soak(
        topology.name, args.seed, net,
        workload::generate_churn_trace(configs->churn, topology.brokers,
                                       args.seed),
        options));

    const sim::ChurnReport& report = runs.back().report;
    using bench::count;
    table.add_row({topology.name, count(topology.brokers), count(report.ops),
                   count(report.publishes), count(report.mismatched_publishes),
                   count(report.totals.notifications_lost),
                   count(report.recovery.snapshots),
                   count(report.recovery.snapshot_bytes),
                   count(report.recovery.gap_ops_replayed),
                   count(report.recovery.replay_mismatches),
                   runs.back().elapsed_seconds});
  }
  table.print(std::cout);
  if (!args.json_path.empty()) {
    write_json(args, config, options.failure, runs);
  }

  // Gate: recovery must be invisible to subscribers on every topology.
  // An empty run (filter matched nothing) must fail, not pass vacuously.
  if (runs.empty()) {
    std::cerr << "\nFAIL: no topology matched --topology="
              << args.topology_filter << "\n";
    return 1;
  }
  std::uint64_t mismatches = 0, lost = 0, replay_mismatches = 0;
  std::size_t without_crash = 0;
  for (const bench::SoakRun& run : runs) {
    mismatches += run.report.mismatched_publishes;
    lost += run.report.totals.notifications_lost;
    replay_mismatches += run.report.recovery.replay_mismatches;
    if (run.report.recovery.crashes == 0) ++without_crash;
  }
  if (mismatches > 0 || lost > 0 || replay_mismatches > 0 || without_crash > 0) {
    std::cerr << "\nFAIL: " << mismatches << " mismatched publishes, " << lost
              << " lost notifications, " << replay_mismatches
              << " replay mismatches, " << without_crash
              << " topologies where the kill never fired\n";
    return 1;
  }
  std::cout << "\nrecovery gate: all topologies recovered with zero loss and "
               "zero ghosts\n";
  return 0;
}
