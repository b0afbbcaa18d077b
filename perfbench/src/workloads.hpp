// The benchmark's three workloads and the op streams they generate.
//
// Every workload is an 8-broker overlay under the paper's `group` coverage
// policy. Its input is one op stream made from two seeds:
//
//   preload  — `preload` immortal subscriptions (set-up, never timed), drawn
//              from the same Zipf hotspots as the timed stream;
//   timed    — a churn trace (workload::generate_churn_trace, TTLs off,
//              membership and faults off) of subscribe / unsubscribe /
//              publish ops, long enough that the closed loop never runs dry.
//
// The geometry — hotspot centres, boxes, points, op order, the random
// tree — comes from the workload's fixed `layout_seed`, so every run of a
// workload loads the same regions of the attribute space. The run's --seed
// places the ops: it draws the home broker of every subscription and
// publication, which changes the cascade paths, the order each link store
// sees subscriptions in and the engine's random draws, but not how much
// coverage work the workload holds. Both halves come from
// generate_churn_trace with the same layout seed and attribute space, so
// they share hotspot centres (the generator draws those first). Timed-stream
// subscription ids are shifted past the preload's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "routing/broker.hpp"
#include "workload/churn_workload.hpp"

namespace perfbench {

using LinkList =
    std::vector<std::pair<psc::routing::BrokerId, psc::routing::BrokerId>>;

enum class Shape { kChain, kStar, kRandomTree };

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kChain;
  std::size_t brokers = 8;
  std::size_t preload = 0;
  std::uint64_t layout_seed = 0;  ///< geometry and op order (see file comment)
  /// Upper bound on closed-loop ops per second, used only to size the
  /// generated stream so a run never exhausts it.
  double max_ops_per_second = 0.0;
  psc::workload::ChurnConfig churn;  ///< timed-stream generator settings
};

/// The named workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec find_workload(const std::string& name);
[[nodiscard]] const char* shape_name(Shape shape);

/// Overlay links for `spec` (the random tree is drawn from the layout seed).
[[nodiscard]] LinkList make_links(const WorkloadSpec& spec);

struct OpStream {
  std::vector<psc::workload::ChurnOp> preload;  ///< kSubscribe only
  std::vector<psc::workload::ChurnOp> timed;    ///< no kAdvance ops
};

/// Generates the preload and a timed stream sized for `seconds` of load,
/// with home brokers drawn from `seed`.
[[nodiscard]] OpStream make_stream(const WorkloadSpec& spec, std::uint64_t seed,
                                   double seconds);

}  // namespace perfbench
