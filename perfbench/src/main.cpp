// psc_perfbench — the repository benchmark's measuring program (see
// ../README.md).
//
//   psc_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --brokerd=PATH [--spans-dir=DIR]
//
// --trace=0: end-to-end leg. Sets an 8-broker psc_brokerd cluster up
//   five times, runs the workload's timed stream in a closed loop for
//   S seconds, then checks every delivered set against the in-process twin
//   and the FlatOracle.
// --trace=1: per-layer leg. A shorter TCP run, then traced in-process
//   replays of the same op stream that time calls into each layer.
//
// Prints one line per metric, then one JSON result line. Exit code 1 when
// the correctness check fails, 2 on a usage or set-up error.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>

#include "procs.hpp"
#include "report.hpp"
#include "tcp_run.hpp"
#include "traced.hpp"
#include "twin.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void add_latencies(Report& report, const TcpResult& tcp) {
  for (std::size_t kind = 0; kind < kOpKindNames.size(); ++kind) {
    report.add_percentiles(std::string(kOpKindNames[kind]) + "_", "_us",
                           tcp.latency_us[kind], "us");
  }
}

int run_end_to_end(const WorkloadSpec& spec, const LinkList& links,
                   const OpStream& stream, const TcpOptions& options) {
  const TcpResult tcp = run_tcp(spec, links, stream, options);
  const CheckResult check = check_against_twin(spec, links, stream, options.seed,
                                               tcp.completed, tcp.delivered);

  Report report;
  report.add("ops_per_s", static_cast<double>(tcp.completed) / tcp.wall_seconds,
             "ops/s", tcp.completed);
  add_latencies(report, tcp);
  report.add("setup_s", median(tcp.setup_seconds), "s", tcp.setup_seconds.size());
  if (check.subscribes > 0) {
    report.add("sub_msgs_per_subscribe",
               static_cast<double>(check.subscription_messages) /
                   static_cast<double>(check.subscribes),
               "msgs", check.subscribes);
  }
  report.add("miss_rate",
             check.expected == 0 ? 0.0
                                 : static_cast<double>(check.missed) /
                                       static_cast<double>(check.expected),
             "ratio", check.expected);
  report.add("broker_peak_rss_mb", tcp.peak_rss_mib, "MiB", tcp.rss_processes);
  const std::size_t failed = tcp.errors + check.divergences;
  report.add("op_error_rate",
             static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(
                                               tcp.attempted, 1)),
             "ratio", tcp.attempted);

  std::cout << "ops per second of the timed region:";
  for (const double ops : tcp.window_ops) std::cout << ' ' << ops;
  std::cout << '\n';
  std::cout << "end-to-end: " << tcp.completed << " ops in " << tcp.wall_seconds
            << " s, " << check.publishes << " publishes checked, "
            << check.missed << " of " << check.expected
            << " expected notifications missed\n";
  report.print_lines(std::cout);
  const bool correct = check.ok() && tcp.errors == 0 && tcp.rss_processes == spec.brokers;
  if (!tcp.first_error.empty()) std::cout << "op error: " << tcp.first_error << '\n';
  if (!check.first_problem.empty()) std::cout << "check: " << check.first_problem << '\n';
  if (tcp.rss_processes != spec.brokers) {
    std::cout << "check: read VmHWM of " << tcp.rss_processes << " brokers, expected "
              << spec.brokers << '\n';
  }
  report.print_json(std::cout, correct, tcp.attempted,
                    failed + check.extras + check.duplicates);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const psc::util::Flags flags(argc, argv);
    const WorkloadSpec spec = find_workload(flags.get_string("workload", ""));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const double seconds = flags.get_double("seconds", 10.0);
    const bool trace = flags.get_int("trace", 0) != 0;

    TcpOptions options;
    options.brokerd_path = flags.get_string("brokerd", "");
    options.seed = seed;
    options.seconds = seconds;
    options.setups = 5;  // setup_s is the median of five full set-ups
    if (options.brokerd_path.empty() || !(seconds > 0)) {
      std::cerr << "psc_perfbench: need --brokerd=PATH and --seconds > 0\n";
      return 2;
    }

    const CpuRotation rotation;
    const LinkList links = make_links(spec);
    const OpStream stream = make_stream(spec, seed, seconds);
    std::cout << "workload " << spec.name << ": " << spec.brokers << " brokers, "
              << shape_name(spec.shape) << ", policy group, seed " << seed
              << ", preload " << stream.preload.size() << ", stream "
              << stream.timed.size() << " ops\n";
    if (trace) {
      TracedOptions traced;
      traced.tcp = options;
      traced.spans_dir = flags.get_string("spans-dir", "");
      return run_traced(spec, links, stream, traced);
    }
    return run_end_to_end(spec, links, stream, options);
  } catch (const std::exception& error) {
    std::cerr << "psc_perfbench: " << error.what() << '\n';
    return 2;
  }
}
