#include "workloads.hpp"

#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"

namespace perfbench {

using psc::routing::BrokerId;
using psc::workload::ChurnConfig;
using psc::workload::ChurnOp;
using psc::workload::ChurnOpKind;

namespace {

// One op per 20 ms slot keeps every stream below one arrival per slot while
// clearing the generator's cascade-window check for 8 brokers.
constexpr double kSlot = 0.02;

ChurnConfig base_config() {
  ChurnConfig config;
  config.slot = kSlot;
  config.ttl_fraction = 0.0;  // TCP brokers run on wall time: no TTLs
  return config;
}

}  // namespace

WorkloadSpec find_workload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  spec.layout_seed = 2006;
  spec.churn = base_config();
  ChurnConfig& c = spec.churn;
  if (name == "pub_fanout") {
    // Wide-spread narrow boxes: few covers, ~10 matches per publication.
    spec.shape = Shape::kRandomTree;
    spec.preload = 2000;
    spec.max_ops_per_second = 12000;
    c.attribute_count = 2;
    c.width_fraction_lo = 0.02;
    c.width_fraction_hi = 0.10;
    c.hotspot_radius_fraction = 0.3;
    c.publication_rate = 23.0;
    c.subscription_rate = 1.0;
    c.immortal_fraction = 0.0;
    c.mean_lifetime = 20.0;
  } else if (name == "sub_cover") {
    // The generator's default hotspot-clustered wide boxes: most new
    // subscriptions are covered by a group of earlier ones.
    spec.shape = Shape::kChain;
    spec.preload = 1000;
    spec.max_ops_per_second = 1500;
    c.publication_rate = 1.0;
    c.subscription_rate = 2.8;
    c.immortal_fraction = 0.0;
    c.mean_lifetime = 40.0;
  } else if (name == "sub_flood") {
    // Narrow 4-attribute boxes spread far from the hotspots: mostly
    // uncovered, so every subscription floods the star.
    spec.shape = Shape::kStar;
    spec.preload = 1000;
    spec.max_ops_per_second = 15000;
    c.attribute_count = 4;
    c.width_fraction_lo = 0.04;
    c.width_fraction_hi = 0.12;
    c.hotspot_radius_fraction = 0.3;
    c.publication_rate = 1.2;
    c.subscription_rate = 8.5;
    c.immortal_fraction = 0.0;
    c.mean_lifetime = 20.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (pub_fanout, sub_cover, sub_flood)");
  }
  return spec;
}

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kChain:
      return "chain";
    case Shape::kStar:
      return "star";
    case Shape::kRandomTree:
      return "random-tree";
  }
  return "?";
}

LinkList make_links(const WorkloadSpec& spec) {
  LinkList links;
  psc::util::Rng rng(spec.layout_seed ^ 0x7c957ee5u);
  for (BrokerId b = 1; b < spec.brokers; ++b) {
    switch (spec.shape) {
      case Shape::kChain:
        links.emplace_back(b - 1, b);
        break;
      case Shape::kStar:
        links.emplace_back(0, b);
        break;
      case Shape::kRandomTree:
        // Node b attaches to a uniformly drawn earlier node.
        links.emplace_back(static_cast<BrokerId>(rng.next_below(b)), b);
        break;
    }
  }
  return links;
}

OpStream make_stream(const WorkloadSpec& spec, std::uint64_t seed,
                     double seconds) {
  OpStream stream;
  psc::util::Rng placement(seed ^ 0x706c6163652eULL);
  std::unordered_map<psc::core::SubscriptionId, BrokerId> homes;
  const auto place = [&](ChurnOp& op) {
    switch (op.kind) {
      case ChurnOpKind::kSubscribe:
        op.broker = static_cast<BrokerId>(placement.next_below(spec.brokers));
        homes[op.sub.id()] = op.broker;
        break;
      case ChurnOpKind::kUnsubscribe:
        op.broker = homes.at(op.id);
        break;
      default:
        op.broker = static_cast<BrokerId>(placement.next_below(spec.brokers));
        break;
    }
  };

  // Preload: immortal subscriptions only, at one per simulated second.
  ChurnConfig pre = spec.churn;
  pre.publication_rate = 0.0;
  pre.subscription_rate = 1.0;
  pre.immortal_fraction = 1.0;
  pre.duration = 1.5 * static_cast<double>(spec.preload) + 100.0;
  const auto preload =
      psc::workload::generate_churn_trace(pre, spec.brokers, spec.layout_seed);
  for (ChurnOp op : preload.ops) {
    if (stream.preload.size() == spec.preload) break;
    if (op.kind != ChurnOpKind::kSubscribe) continue;
    place(op);
    stream.preload.push_back(std::move(op));
  }
  if (stream.preload.size() != spec.preload) {
    throw std::logic_error("preload generation came up short");
  }

  ChurnConfig timed = spec.churn;
  const double ops_per_sim_second =
      timed.subscription_rate * (2.0 - timed.immortal_fraction) +
      timed.publication_rate;
  const double wanted_ops = spec.max_ops_per_second * seconds + 1000.0;
  timed.duration = wanted_ops / ops_per_sim_second;
  const auto trace =
      psc::workload::generate_churn_trace(timed, spec.brokers, spec.layout_seed);
  const auto shift = static_cast<psc::core::SubscriptionId>(spec.preload);
  stream.timed.reserve(trace.ops.size());
  for (ChurnOp op : trace.ops) {
    switch (op.kind) {
      case ChurnOpKind::kSubscribe:
        op.sub.set_id(op.sub.id() + shift);
        break;
      case ChurnOpKind::kUnsubscribe:
        op.id += shift;
        break;
      case ChurnOpKind::kPublish:
        break;
      default:
        continue;  // kAdvance: wall clock needs no driving
    }
    place(op);
    stream.timed.push_back(std::move(op));
  }
  return stream;
}

}  // namespace perfbench
