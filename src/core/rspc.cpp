#include "core/rspc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace psc::core {

std::vector<Value> sample_point(const Subscription& s, util::Rng& rng) {
  std::vector<Value> point(s.attribute_count());
  for (std::size_t j = 0; j < s.attribute_count(); ++j) {
    const Interval& range = s.range(j);
    if (!std::isfinite(range.lo) || !std::isfinite(range.hi)) {
      throw std::invalid_argument(
          "sample_point: unbounded attribute range cannot be sampled uniformly");
    }
    point[j] = rng.uniform(range.lo, range.hi);
  }
  return point;
}

bool point_in_union(std::span<const Value> point,
                    std::span<const Subscription> set) noexcept {
  for (const Subscription& si : set) {
    if (si.contains_point(point)) return true;
  }
  return false;
}

bool point_in_union(std::span<const Value> point,
                    std::span<const Subscription* const> set) noexcept {
  for (const Subscription* si : set) {
    if (si->contains_point(point)) return true;
  }
  return false;
}

namespace {

constexpr Value kInf = std::numeric_limits<Value>::infinity();

/// Measure of the overlap of `c` with s (the hit probability of c times
/// vol(s)); candidates are laid out in descending order of it so a trial
/// inside the union usually hits in the first block. A NaN endpoint (which
/// no point satisfies) counts as no overlap, keeping the sort key ordered.
Value overlap_measure(const Subscription& s, const Subscription& c) {
  Value measure = 1.0;
  for (std::size_t j = 0; j < s.attribute_count(); ++j) {
    measure *= s.range(j).intersect(c.range(j)).width();
  }
  return measure > 0.0 ? measure : 0.0;
}

/// Copies the candidates that share s's arity into the flat layout and
/// returns its stride (lanes per attribute row). A candidate of another
/// arity never contains a sample point, so it is left out; an all-padding
/// layout of stride 0 then contains nothing.
std::size_t lay_out(const Subscription& s,
                    std::span<const Subscription* const> set,
                    RspcScratch& scratch) {
  const std::size_t m = s.attribute_count();
  scratch.order.clear();
  for (const Subscription* c : set) {
    if (c->attribute_count() == m) {
      scratch.order.emplace_back(overlap_measure(s, *c), c);
    }
  }
  std::sort(scratch.order.begin(), scratch.order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::size_t stride = simd::padded_words(scratch.order.size());
  scratch.lo.assign(m * stride, kInf);
  scratch.hi.assign(m * stride, -kInf);
  for (std::size_t i = 0; i < scratch.order.size(); ++i) {
    const std::span<const Interval> ranges = scratch.order[i].second->ranges();
    for (std::size_t j = 0; j < m; ++j) {
      scratch.lo[j * stride + i] = ranges[j].lo;
      scratch.hi[j * stride + i] = ranges[j].hi;
    }
  }
  return stride;
}

}  // namespace

RspcResult run_rspc(const Subscription& s,
                    std::span<const Subscription* const> set,
                    std::uint64_t budget, util::Rng& rng,
                    RspcScratch& scratch) {
  RspcResult result;
  // An empty union covers nothing with positive measure: definite NO
  // without sampling (unless s itself is a point, which we still report as
  // uncovered — there is no subscription to cover it).
  if (set.empty()) {
    result.covered = false;
    result.witness = sample_point(s, rng);
    return result;
  }
  if (budget == 0) return result;
  const std::span<const Interval> bounds = s.ranges();
  for (const Interval& range : bounds) {
    if (!std::isfinite(range.lo) || !std::isfinite(range.hi)) {
      throw std::invalid_argument(
          "run_rspc: unbounded attribute range cannot be sampled uniformly");
    }
  }
  const std::size_t m = bounds.size();
  const std::size_t stride = lay_out(s, set, scratch);
  scratch.point.resize(m);
  Value* const point = scratch.point.data();
  for (std::uint64_t trial = 0; trial < budget; ++trial) {
    ++result.iterations;
    for (std::size_t j = 0; j < m; ++j) {
      point[j] = rng.uniform(bounds[j].lo, bounds[j].hi);
    }
    if (!simd::any_box_contains(point, scratch.lo.data(), scratch.hi.data(),
                                m, stride)) {
      result.covered = false;
      result.witness = scratch.point;
      return result;
    }
  }
  return result;
}

RspcResult run_rspc(const Subscription& s, std::span<const Subscription> set,
                    std::uint64_t budget, util::Rng& rng) {
  // Delegate to the pointer-span implementation so there is exactly one
  // copy of the trial loop.
  std::vector<const Subscription*> pointers;
  pointers.reserve(set.size());
  for (const Subscription& si : set) pointers.push_back(&si);
  RspcScratch scratch;
  return run_rspc(s, pointers, budget, rng, scratch);
}

}  // namespace psc::core
