// TCP soak — the loopback multi-process differential gate at bench scale:
// a real psc_brokerd cluster per (topology, seed) cell replays a churn
// trace against the in-process FlatOracle, delivered sets byte-identical
// (zero divergence, zero loss, zero duplicates — the kOpResult ids ARE the
// delivered set, so any of those shows up as a set mismatch). Faults stay
// off for the base leg; the kill leg then SIGKILLs a mid-overlay broker
// half way through the trace and requires the surviving neighbours'
// EOF-triggered purges (the fail_link repair semantics) to keep the
// remaining components oracle-exact.
//
//   ./tcp_soak [--brokers=8] [--ops=300] [--seeds=2] [--seed=2006]
//       [--topology=NAME] [--policy=exact]
//       [--kill=true] [--brokerd=PATH] [--json=PATH]
//
// Topology family: chain / star / random-tree (brokerd overlays are trees;
// random-tree draws each node's parent from a seeded stream). --topology
// substring-filters the family, like the other soaks.
//
// JSON artifact: per-run rows plus a top-level "gates" object with the
// aggregate oracle_divergences counter — scripts/check_bench.py validates
// that gate (recording-only: no perf baseline comparison for TCP runs,
// wall-clock here is scheduler noise, not a regression signal).
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.hpp"
#include "net/cluster_driver.hpp"
#include "soak_common.hpp"

#ifndef PSC_BROKERD_BIN
#define PSC_BROKERD_BIN ""
#endif

namespace {

using namespace psc;

using LinkList = std::vector<std::pair<routing::BrokerId, routing::BrokerId>>;

struct SoakTopology {
  std::string name;
  LinkList links;
};

std::vector<SoakTopology> soak_topologies(std::size_t brokers,
                                          std::uint64_t seed) {
  std::vector<SoakTopology> family;
  LinkList chain;
  for (routing::BrokerId b = 1; b < brokers; ++b) chain.emplace_back(b - 1, b);
  family.push_back({"chain", std::move(chain)});

  LinkList star;
  for (routing::BrokerId b = 1; b < brokers; ++b) star.emplace_back(0, b);
  family.push_back({"star", std::move(star)});

  // Random tree: node i attaches to a uniformly drawn earlier node, so the
  // shape (depth, branching) varies with the seed while staying a tree.
  util::Rng rng(seed ^ 0x7c957ee5u);
  LinkList tree;
  for (routing::BrokerId b = 1; b < brokers; ++b) {
    tree.emplace_back(static_cast<routing::BrokerId>(rng.next_below(b)), b);
  }
  family.push_back({"random-tree", std::move(tree)});
  return family;
}

/// The kill victim: an internal (non-leaf) broker when one exists, so the
/// SIGKILL actually splits the overlay instead of trimming a leaf.
routing::BrokerId pick_victim(const SoakTopology& topology,
                              std::size_t brokers) {
  std::vector<std::size_t> degree(brokers, 0);
  for (const auto& [a, b] : topology.links) {
    ++degree[a];
    ++degree[b];
  }
  for (routing::BrokerId b = 1; b < brokers; ++b) {
    if (degree[b] > 1) return b;
  }
  return brokers > 1 ? 1 : 0;
}

struct SoakResult {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t brokers = 0;
  net::ReplayReport report;
  double elapsed_seconds = 0.0;

  [[nodiscard]] bool gates_pass() const {
    return report.divergences == 0 && report.publishes > 0;
  }
};

void write_json(const std::string& path, std::size_t brokers,
                const std::string& policy,
                const std::vector<SoakResult>& results) {
  std::uint64_t total_divergences = 0;
  std::uint64_t total_publishes = 0;
  for (const SoakResult& result : results) {
    total_divergences += result.report.divergences;
    total_publishes += result.report.publishes;
  }
  bench::JsonReport report(path, "tcp_soak");
  bench::JsonWriter& json = report.json;
  json.member("policy", policy);
  json.member("brokers", std::uint64_t{brokers});
  json.begin_array("runs");
  for (const SoakResult& result : results) {
    json.begin_object();
    json.member("name", result.name);
    json.member("seed", result.seed);
    json.member("brokers", std::uint64_t{result.brokers});
    json.member("ops", std::uint64_t{result.report.ops});
    json.member("subscribes", std::uint64_t{result.report.subscribes});
    json.member("unsubscribes", std::uint64_t{result.report.unsubscribes});
    json.member("publishes", std::uint64_t{result.report.publishes});
    json.member("skipped", std::uint64_t{result.report.skipped});
    json.member("divergences", std::uint64_t{result.report.divergences});
    json.member("killed", result.report.killed);
    json.member("gates_pass", result.gates_pass());
    json.member("elapsed_seconds", result.elapsed_seconds);
    json.end_object();
  }
  json.end_array();
  // The aggregate gate scripts/check_bench.py validates for this artifact.
  json.begin_object("gates");
  json.member("oracle_divergences", total_divergences);
  json.member("total_publishes", total_publishes);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;
  const util::Flags flags(argc, argv);

  const auto brokers = static_cast<std::size_t>(flags.get_int("brokers", 8));
  const auto ops = static_cast<std::size_t>(flags.get_int("ops", 300));
  const auto seed_count = static_cast<std::size_t>(flags.get_int("seeds", 2));
  const auto base_seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 2006));
  const std::string policy = flags.get_string("policy", "exact");
  const bool with_kill = flags.get_bool("kill", true);
  const std::string topology_filter = flags.get_string("topology", "");
  const std::string json_path = flags.get_string("json", "");
  const std::string brokerd_path =
      flags.get_string("brokerd", PSC_BROKERD_BIN);
  if (brokerd_path.empty()) {
    std::cerr << "tcp_soak: no psc_brokerd path (pass --brokerd=PATH)\n";
    return 2;
  }

  bench::print_banner(std::cout, "tcp_soak",
                     "multi-process TCP cluster vs FlatOracle, loopback");

  bench::TableWriter table({"topology", "seed", "leg", "brokers", "ops",
                           "publishes", "skipped", "divergences", "seconds"});
  std::vector<SoakResult> results;
  std::vector<std::string> failures;

  const auto run_one = [&](const SoakTopology& topology, std::uint64_t seed,
                           const char* leg, const net::ReplayOptions& replay) {
    net::ClusterOptions options;
    options.brokerd_path = brokerd_path;
    options.brokers = brokers;
    options.links = topology.links;
    options.seed = seed;
    options.policy = policy;

    workload::ChurnConfig config;
    // One op per slot; TTLs off routes every mortal subscription through an
    // explicit unsubscribe (wall clock is not sim time), membership rates
    // stay zero (kills are driver-initiated, not trace ops).
    config.ttl_fraction = 0.0;
    config.duration = config.slot * static_cast<double>(ops);
    const workload::ChurnTrace trace =
        workload::generate_churn_trace(config, brokers, seed);

    SoakResult result;
    result.name = topology.name + "/" + leg;
    result.seed = seed;
    result.brokers = brokers;
    const bench::Timer timer;
    net::Cluster cluster(std::move(options));
    cluster.start();
    result.report = net::replay_trace_vs_oracle(cluster, trace, replay);
    cluster.shutdown();
    result.elapsed_seconds = timer.elapsed_seconds();

    table.add_row({result.name, static_cast<long long>(seed),
                   std::string(leg), static_cast<long long>(brokers),
                   static_cast<long long>(result.report.ops),
                   static_cast<long long>(result.report.publishes),
                   static_cast<long long>(result.report.skipped),
                   static_cast<long long>(result.report.divergences),
                   result.elapsed_seconds});
    if (!result.gates_pass()) {
      std::cerr << "\nGATE FAILURE on " << result.name << " (seed " << seed
                << "): divergences=" << result.report.divergences
                << " publishes=" << result.report.publishes << "\n"
                << "  reproduce: ./tcp_soak --brokers=" << brokers
                << " --ops=" << ops << " --seed=" << seed << " --seeds=1"
                << " --topology=" << topology.name
                << " --policy=" << policy << "\n";
      failures.push_back(result.name + "/" + std::to_string(seed));
    }
    results.push_back(std::move(result));
  };

  for (const SoakTopology& topology : soak_topologies(brokers, base_seed)) {
    if (!topology_filter.empty() &&
        topology.name.find(topology_filter) == std::string::npos) {
      continue;
    }
    for (std::size_t s = 0; s < seed_count; ++s) {
      const std::uint64_t seed = base_seed + s;
      // Faults-off leg first: the clean differential baseline.
      run_one(topology, seed, "clean", {});
      if (with_kill && brokers >= 3) {
        net::ReplayOptions replay;
        replay.kill_at_op = ops / 2;
        replay.victim = pick_victim(topology, brokers);
        run_one(topology, seed, "kill", replay);
      }
    }
  }
  table.print(std::cout);

  if (!json_path.empty()) write_json(json_path, brokers, policy, results);
  if (!failures.empty()) return bench::gate_status(failures.size());
  std::cout << "\nall tcp-loopback gates passed (" << results.size()
            << " runs)\n";
  return 0;
}
