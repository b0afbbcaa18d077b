// Random Simple Predicates Cover (paper, Algorithm 1): the Monte-Carlo core.
// Draw up to d uniform points inside s; if any point lies outside every
// subscription in S it is a *point witness* (Definition 4) and the answer is
// a definite NO. If all d draws land inside the union, answer a
// probabilistic YES with error at most (1 - rho_w)^d.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/publication.hpp"
#include "core/subscription.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace psc::core {

struct RspcResult {
  /// True = probabilistic YES (covered); false = definite NO.
  bool covered = true;
  /// Trials actually executed (<= budget; early exit on first witness).
  std::uint64_t iterations = 0;
  /// The point witness when covered == false.
  std::optional<std::vector<Value>> witness;
};

/// Reusable buffers of the trial loop: the candidate set copied into the
/// flat layout simd::any_box_contains reads (one lo row and one hi row per
/// attribute, padded to whole 256-bit blocks with never-matching lanes),
/// the sample point, and the candidate order. Capacity survives across
/// calls; EngineWorkspace owns one.
struct RspcScratch {
  simd::AlignedVector<Value> lo;
  simd::AlignedVector<Value> hi;
  std::vector<Value> point;
  std::vector<std::pair<Value, const Subscription*>> order;
  std::size_t stride = 0;  ///< lanes per attribute row of lo / hi
};

/// Copies the candidates that share s's arity into `scratch`'s flat layout,
/// in descending order of their overlap measure with s (order[i] is lane
/// i), and sets scratch.stride. A candidate of another arity never contains
/// a point of s, so it is left out. Draws nothing from any RNG.
void lay_out_candidates(const Subscription& s,
                        std::span<const Subscription* const> set,
                        RspcScratch& scratch);

/// The trial loop of run_rspc over a layout lay_out_candidates built for
/// s: same verdict, iterations, witness and RNG consumption as run_rspc on
/// the same set. Requires finite ranges on s (throws otherwise).
[[nodiscard]] RspcResult run_rspc_laid_out(const Subscription& s,
                                           std::uint64_t budget,
                                           util::Rng& rng,
                                           RspcScratch& scratch);

/// Runs RSPC with a fixed trial budget. Cost: O(k * m + k log k) once to
/// lay out the candidates in descending order of their overlap with s,
/// then per trial m draws plus one simd::any_box_contains call — m
/// compares per block of four candidates, exiting on the first block
/// holding the point (usually the first, thanks to the order); O(budget *
/// m * k / 4) worst case, with early exit on the first witness. Union
/// membership does not depend on the candidate order, so the verdict,
/// iteration count, witness and RNG consumption are those of testing
/// `sample_point` against `point_in_union` trial by trial.
/// Sampling an unbounded attribute of s is impossible with a uniform law;
/// such instances must be range-clamped by the caller (the engine does) —
/// with a non-zero budget and a non-empty set this function requires s to
/// have finite ranges on all attributes and throws otherwise.
[[nodiscard]] RspcResult run_rspc(const Subscription& s,
                                  std::span<const Subscription> set,
                                  std::uint64_t budget, util::Rng& rng);

/// Allocation-free variant over a pointer set: the flat layout and the
/// sample point live in `scratch`, whose capacity is reused across calls.
/// The only remaining allocation is the witness copy on a definite NO.
[[nodiscard]] RspcResult run_rspc(const Subscription& s,
                                  std::span<const Subscription* const> set,
                                  std::uint64_t budget, util::Rng& rng,
                                  RspcScratch& scratch);

/// Draws one uniform point inside s (requires finite ranges; degenerate
/// [v, v] ranges yield the point value v).
[[nodiscard]] std::vector<Value> sample_point(const Subscription& s, util::Rng& rng);

/// True iff `point` lies inside at least one subscription of `set`.
[[nodiscard]] bool point_in_union(std::span<const Value> point,
                                  std::span<const Subscription> set) noexcept;
[[nodiscard]] bool point_in_union(std::span<const Value> point,
                                  std::span<const Subscription* const> set) noexcept;

}  // namespace psc::core
