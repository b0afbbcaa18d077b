#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/fast_decisions.hpp"
#include "util/simd.hpp"

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

/// Outcome of the residue stage: kUndecided means a bound was hit and the
/// caller falls through to RSPC.
enum class Residue { kUndecided, kCovered, kWitness };

/// Exact residue subtraction of the laid-out candidates (descending
/// overlap with s) from s, depth first. Each fragment carries the lane of
/// the next candidate to test against it; a candidate that shares positive
/// measure with the fragment either contains it (dropped) or splits it
/// into at most 2m positive-measure fragments outside the candidate. A
/// fragment that passes the last lane untouched is uncovered: its centre
/// is the witness, left in `ws.rspc.point`. Returns kUndecided, having drawn
/// nothing from any RNG, when s has zero width on an attribute, the
/// fragment visits (one candidate tested against one fragment) would
/// exceed `budget`, more than kResidueFragmentCap fragments would be live,
/// or the centre is not strictly outside the union (an ulp-wide fragment).
Residue subtract_residue(const Subscription& s, std::uint64_t budget,
                         EngineWorkspace& ws, std::uint64_t& visits) {
  RspcScratch& rspc = ws.rspc;
  const std::size_t m = s.attribute_count();
  for (const Interval& r : s.ranges()) {
    if (!(r.lo < r.hi)) return Residue::kUndecided;
  }
  const std::size_t n = rspc.order.size();
  const std::size_t stride = rspc.stride;
  const Value* const lo = rspc.lo.data();
  const Value* const hi = rspc.hi.data();
  // Fragment f occupies residue[2mf, 2mf + 2m): m lows, then m highs.
  const std::size_t width = 2 * m;
  std::size_t live = 0;
  const auto push = [&](std::size_t next) -> Value* {
    if (ws.residue.size() < (live + 1) * width) {
      ws.residue.resize((live + 1) * width);
    }
    if (ws.residue_next.size() < live + 1) ws.residue_next.resize(live + 1);
    ws.residue_next[live] = next;
    return ws.residue.data() + width * live++;
  };
  {
    Value* const f = push(0);
    for (std::size_t j = 0; j < m; ++j) {
      f[j] = s.range(j).lo;
      f[m + j] = s.range(j).hi;
    }
  }
  ws.residue_box.resize(width);
  Value* const box = ws.residue_box.data();
  while (live > 0) {
    --live;
    std::copy_n(ws.residue.data() + width * live, width, box);
    std::size_t i = ws.residue_next[live];
    for (; i < n; ++i) {
      if (++visits > budget) return Residue::kUndecided;
      // Positive-measure overlap on every attribute; false on NaN.
      std::size_t j = 0;
      while (j < m && lo[j * stride + i] < box[m + j] &&
             box[j] < hi[j * stride + i] &&
             lo[j * stride + i] < hi[j * stride + i]) {
        ++j;
      }
      if (j == m) break;
    }
    if (i == n) {
      rspc.point.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        rspc.point[j] = 0.5 * (box[j] + box[m + j]);
      }
      return simd::any_box_contains(rspc.point.data(), lo, hi, m, stride)
                 ? Residue::kUndecided
                 : Residue::kWitness;
    }
    const std::size_t next = i + 1;
    for (std::size_t j = 0; j < m; ++j) {
      const Value cut_lo = lo[j * stride + i];
      const Value cut_hi = hi[j * stride + i];
      if (cut_lo > box[j]) {
        if (live == kResidueFragmentCap) return Residue::kUndecided;
        Value* const below = push(next);
        std::copy_n(box, width, below);
        below[m + j] = cut_lo;
      }
      if (cut_hi < box[m + j]) {
        if (live == kResidueFragmentCap) return Residue::kUndecided;
        Value* const above = push(next);
        std::copy_n(box, width, above);
        above[j] = cut_hi;
      }
      box[j] = std::max(box[j], cut_lo);
      box[m + j] = std::min(box[m + j], cut_hi);
    }
  }
  return Residue::kCovered;
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

  lay_out_candidates(tested, rspc_set, ws_.rspc);
  if (config_.exact_residue) {
    std::uint64_t visits = 0;
    const Residue residue =
        subtract_residue(tested, result.trial_budget, ws_, visits);
    if (residue != Residue::kUndecided) {
      result.residue_fragments = visits;
      result.covered = residue == Residue::kCovered;
      result.path = result.covered ? DecisionPath::kRspcProbabilistic
                                   : DecisionPath::kRspcWitness;
      if (!result.covered) result.witness = ws_.rspc.point;
      return result;
    }
  }

  const RspcResult rspc =
      run_rspc_laid_out(tested, result.trial_budget, rng_, ws_.rspc);
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
