#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/fast_decisions.hpp"

namespace psc::core {

namespace {

constexpr Value kInf = std::numeric_limits<Value>::infinity();

enum class Unbounded { kNone, kClamped, kWitness };

/// Resolves the infinite sides of s against the candidate set (see
/// SubsumptionEngine::check). kWitness: some infinite side of s has no
/// candidate unbounded on that side, so a point of s beyond every finite
/// endpoint lies outside the union. kClamped: `ranges` holds s with each
/// infinite side moved to the extreme finite endpoint on its attribute
/// (of s or a candidate) plus max(1, the span of those endpoints). Beyond
/// the extreme endpoint a candidate contains x_j iff it is unbounded on
/// that side, so one slab there decides the whole half-line.
Unbounded clamp_unbounded(const Subscription& s,
                          std::span<const Subscription* const> set,
                          std::vector<Interval>& ranges) {
  const auto bounded = [](const Interval& r) {
    return r.lo != -kInf && r.hi != kInf;
  };
  if (std::all_of(s.ranges().begin(), s.ranges().end(), bounded)) {
    return Unbounded::kNone;
  }
  ranges.assign(s.ranges().begin(), s.ranges().end());
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    Interval& r = ranges[j];
    if (bounded(r)) continue;
    Value lo_end = kInf;
    Value hi_end = -kInf;
    bool open_below = false;
    bool open_above = false;
    const auto note = [&](Value v) {
      if (std::isfinite(v)) {
        lo_end = std::min(lo_end, v);
        hi_end = std::max(hi_end, v);
      }
    };
    note(r.lo);
    note(r.hi);
    for (const Subscription* c : set) {
      const Interval& cr = c->range(j);
      open_below = open_below || cr.lo == -kInf;
      open_above = open_above || cr.hi == kInf;
      note(cr.lo);
      note(cr.hi);
    }
    if ((r.lo == -kInf && !open_below) || (r.hi == kInf && !open_above)) {
      return Unbounded::kWitness;
    }
    // No finite endpoint at all: membership never depends on x_j.
    if (lo_end > hi_end) lo_end = hi_end = 0.0;
    const Value margin = std::max<Value>(1.0, hi_end - lo_end);
    if (r.lo == -kInf) r.lo = lo_end - margin;
    if (r.hi == kInf) r.hi = hi_end + margin;
  }
  return Unbounded::kClamped;
}

}  // namespace

std::string_view to_string(DecisionPath path) noexcept {
  switch (path) {
    case DecisionPath::kEmptySet: return "empty-set";
    case DecisionPath::kPairwiseCover: return "pairwise-cover";
    case DecisionPath::kPolyhedronWitness: return "polyhedron-witness";
    case DecisionPath::kMcsEmpty: return "mcs-empty";
    case DecisionPath::kRspcWitness: return "rspc-witness";
    case DecisionPath::kRspcProbabilistic: return "rspc-probabilistic";
  }
  return "unknown";
}

void validate(const EngineConfig& config) {
  if (!(config.delta > 0.0 && config.delta < 1.0)) {
    throw std::invalid_argument("EngineConfig: delta must be in (0, 1)");
  }
  if (config.max_iterations == 0) {
    throw std::invalid_argument("EngineConfig: max_iterations must be > 0");
  }
  if (config.grid_spacing < 0.0) {
    throw std::invalid_argument("EngineConfig: grid_spacing must be >= 0");
  }
}

SubsumptionEngine::SubsumptionEngine(EngineConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  validate(config_);
}

void SubsumptionEngine::set_config(const EngineConfig& config) {
  validate(config);
  config_ = config;
}

SubsumptionResult SubsumptionEngine::check(const Subscription& s,
                                           std::span<const Subscription> set) {
  ws_.input.clear();
  ws_.input.reserve(set.size());
  for (const Subscription& si : set) ws_.input.push_back(&si);
  return check(s, std::span<const Subscription* const>(ws_.input));
}

SubsumptionResult SubsumptionEngine::check(
    const Subscription& s, std::span<const Subscription* const> set) {
  SubsumptionResult result;
  result.original_set_size = set.size();
  result.reduced_set_size = set.size();

  // Prefilter: a candidate sharing no positive-measure region with s
  // cannot contribute to covering s; dropping it up front skips its
  // conflict-table row and all MCS work on it. Indices are remembered so
  // diagnostics still refer to the caller's set.
  ws_.filtered.clear();
  ws_.original_index.clear();
  if (config_.prefilter_intersecting) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (s.overlaps_interior(*set[i]) || set[i]->covers(s)) {
        ws_.filtered.push_back(set[i]);
        ws_.original_index.push_back(i);
      }
    }
    set = ws_.filtered;
    result.reduced_set_size = set.size();
  }

  if (set.empty()) {
    result.covered = false;
    result.path = config_.prefilter_intersecting && result.original_set_size > 0
                      ? DecisionPath::kMcsEmpty
                      : DecisionPath::kEmptySet;
    return result;
  }

  std::optional<Subscription> clamped;
  std::vector<Interval> clamped_ranges;
  switch (clamp_unbounded(s, set, clamped_ranges)) {
    case Unbounded::kNone: break;
    case Unbounded::kWitness:
      result.covered = false;
      result.path = DecisionPath::kPolyhedronWitness;
      return result;
    case Unbounded::kClamped:
      clamped.emplace(std::move(clamped_ranges), s.id());
      break;
  }
  const Subscription& tested = clamped ? *clamped : s;

  ws_.table.rebuild(tested, set);
  const ConflictTable& table = ws_.table;

  if (config_.use_fast_decisions) {
    const FastDecisionResult fast = run_fast_decisions(table, ws_.sorted_counts);
    if (fast.decision == FastDecision::kCoveredPairwise) {
      result.covered = true;
      result.path = DecisionPath::kPairwiseCover;
      result.covering_index = config_.prefilter_intersecting
                                  ? ws_.original_index[*fast.covering_row]
                                  : *fast.covering_row;
      return result;
    }
    if (fast.decision == FastDecision::kNotCoveredWitness) {
      result.covered = false;
      result.path = DecisionPath::kPolyhedronWitness;
      return result;
    }
  }

  // Work on the (possibly) reduced candidate set. The reduced view is
  // materialized so RSPC scans a dense pointer array, and the estimate
  // table is rebuilt only when MCS actually removed rows.
  std::span<const Subscription* const> rspc_set = set;
  const ConflictTable* estimate_table = &table;
  if (config_.use_mcs) {
    run_mcs(table, ws_.mcs, ws_.alive);
    result.mcs_ran = true;
    result.reduced_set_size = ws_.mcs.kept.size();
    if (ws_.mcs.empty()) {
      result.covered = false;
      result.path = DecisionPath::kMcsEmpty;
      return result;
    }
    if (ws_.mcs.kept.size() < set.size()) {
      ws_.reduced.clear();
      for (std::size_t index : ws_.mcs.kept) ws_.reduced.push_back(set[index]);
      rspc_set = ws_.reduced;
      // rho_w / d are estimated on the *reduced* set: fewer rows can only
      // widen the per-attribute minimum gaps, which is exactly the effect
      // the paper's Figures 7 and 9 measure.
      ws_.reduced_table.rebuild(tested, rspc_set);
      estimate_table = &ws_.reduced_table;
    }
  }

  const WitnessEstimate estimate =
      estimate_witness_probability(*estimate_table, config_.grid_spacing);
  result.rho_w = estimate.rho_w;
  result.theoretical_d =
      estimate.rho_w > 0.0
          ? theoretical_trials(estimate.rho_w, config_.delta)
          : std::numeric_limits<double>::infinity();
  result.trial_budget =
      capped_trials(estimate.rho_w, config_.delta, config_.max_iterations);

  const RspcResult rspc =
      run_rspc(tested, rspc_set, result.trial_budget, rng_, ws_.rspc);
  result.iterations = rspc.iterations;
  if (!rspc.covered) {
    result.covered = false;
    result.path = DecisionPath::kRspcWitness;
    result.witness = rspc.witness;
    return result;
  }
  result.covered = true;
  result.is_definite = false;
  result.path = DecisionPath::kRspcProbabilistic;
  return result;
}

}  // namespace psc::core
