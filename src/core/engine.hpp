// SubsumptionEngine — the full decision pipeline of the paper's Algorithm 4:
//
//   1. build conflict table
//   2. Corollary 1 fast YES      (pairwise cover)
//      Corollary 3 fast NO       (sorted-row polyhedron witness)
//   3. MCS reduction             (empty reduced set => definite NO)
//   4. rho_w / d estimation      (Algorithm 2 + Equation 1)
//   5. exact residue             (definite YES or NO within d fragment
//                                 visits; else fall through to...)
//      RSPC                      (definite NO or probabilistic YES)
//
// A definite verdict is always correct. A probabilistic YES errs with
// probability at most delta = (1 - rho_w)^d, the paper's only error mode
// (a falsely-withheld subscription).
//
// The exact residue stage is not in the paper, which samples because exact
// group subsumption is co-NP complete in general. At the dimensions
// brokers see after MCS (a few attributes, about ten candidates), though,
// subtracting the candidate boxes from s takes far fewer steps than the d
// trials Eq. 1 asks for. The stage gets at most d fragment visits and
// kResidueFragmentCap live fragments, reads no clock and draws no random
// number, so when it gives up the RSPC stage runs exactly as it would
// without it. EngineConfig::exact_residue = false is the paper's engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/conflict_table.hpp"
#include "core/mcs.hpp"
#include "core/rspc.hpp"
#include "core/witness_estimate.hpp"
#include "util/rng.hpp"

namespace psc::core {

/// How the pipeline reached its verdict.
///
/// The last two values are the stage 5 verdicts on the reduced set, the
/// exact residue stage's as well as RSPC's; SubsumptionResult's
/// residue_fragments (non-zero) and iterations tell them apart. The residue
/// stage has no value of its own because consumers index fixed
/// six-element arrays by this enum (the perfbench tracer among them).
enum class DecisionPath : std::uint8_t {
  kEmptySet,            ///< no candidate subscriptions: definite NO
  kPairwiseCover,       ///< Corollary 1: definite YES
  kPolyhedronWitness,   ///< Corollary 3: definite NO
  kMcsEmpty,            ///< MCS removed every candidate: definite NO
  /// Stage 5 found a point witness: definite NO (a residue fragment's
  /// centre, or an RSPC sample).
  kRspcWitness,
  /// Stage 5 found s covered: a definite YES from the residue stage
  /// (is_definite, iterations == 0), else a probabilistic YES after RSPC
  /// exhausted d trials.
  kRspcProbabilistic,
};

/// Most fragments the exact residue stage keeps live before it gives the
/// query to RSPC.
inline constexpr std::size_t kResidueFragmentCap = 1024;

[[nodiscard]] std::string_view to_string(DecisionPath path) noexcept;

/// Full diagnostics for one subsumption query.
struct SubsumptionResult {
  bool covered = false;              ///< the verdict
  bool is_definite = true;           ///< false only for an RSPC YES
  DecisionPath path = DecisionPath::kEmptySet;

  std::size_t original_set_size = 0; ///< k before reduction
  std::size_t reduced_set_size = 0;  ///< |S'| after MCS (when MCS ran)
  bool mcs_ran = false;

  double rho_w = 0.0;                ///< witness-probability estimate
  double theoretical_d = 0.0;        ///< Eq. 1 bound (may be +inf)
  std::uint64_t trial_budget = 0;    ///< capped trials handed to RSPC
  std::uint64_t iterations = 0;      ///< RSPC trials actually executed
  /// Fragment visits of the exact residue stage when it decided; 0 when
  /// it did not run or gave the query to RSPC.
  std::uint64_t residue_fragments = 0;

  /// Point witness when the verdict came from stage 5 (kRspcWitness).
  std::optional<std::vector<Value>> witness;
  /// Row index (into the caller's set) of the covering subscription when
  /// the pairwise fast path fired.
  std::optional<std::size_t> covering_index;
};

/// Tuning knobs for the pipeline.
struct EngineConfig {
  double delta = 1e-6;               ///< target error bound (0 < delta < 1)
  std::uint64_t max_iterations = 1'000'000;  ///< hard RSPC budget cap
  bool use_fast_decisions = true;    ///< Corollary 1 / Corollary 3 paths
  bool use_mcs = true;               ///< run the reduction before RSPC
  /// Volume measure for the rho_w estimate: 0 = continuous widths; > 0 =
  /// the paper's integer-point counting on a grid of this spacing (see
  /// estimate_witness_probability).
  double grid_spacing = 0.0;
  /// Drop candidates whose intersection with s has zero measure before
  /// building the conflict table. Sound (they contribute nothing to the
  /// union over s) and an order-of-magnitude win on large clustered sets;
  /// off only for tests that exercise the unfiltered paths.
  bool prefilter_intersecting = true;
  /// Run the exact residue stage between the d estimate and RSPC. Off
  /// reproduces the paper's Algorithm 4 (and its RNG stream) exactly.
  bool exact_residue = true;
};

/// Reusable scratch state for SubsumptionEngine::check. Owned by the
/// engine; every buffer is cleared-and-refilled per query so its capacity
/// survives across checks and steady-state queries (same working-set size)
/// perform zero heap allocations. The only remaining allocation paths are
/// capacity growth on a larger-than-ever query, the witness copy returned
/// with a definite NO, and the clamped copy of an unbounded s.
struct EngineWorkspace {
  std::vector<const Subscription*> input;     ///< value-span adapter
  std::vector<const Subscription*> filtered;  ///< prefilter survivors
  std::vector<std::size_t> original_index;    ///< filtered -> caller index
  std::vector<const Subscription*> reduced;   ///< MCS survivors
  ConflictTable table;                        ///< rebuilt per query
  ConflictTable reduced_table;                ///< rebuilt when MCS shrinks
  McsResult mcs;                              ///< kept vector reused
  std::vector<char> alive;                    ///< MCS alive mask
  std::vector<std::size_t> sorted_counts;     ///< Corollary 3 scratch
  RspcScratch rspc;                           ///< RSPC flat layout + point
  std::vector<Value> residue;                 ///< live residue fragments
  std::vector<std::size_t> residue_next;      ///< next lane per fragment
  std::vector<Value> residue_box;             ///< fragment being cut
};

/// Stateless-except-RNG checker. One instance may serve many queries; the
/// RNG stream advances per query, keeping runs reproducible from the seed.
///
/// Thread-safety: NOT safe for concurrent check() calls on one instance —
/// the engine owns a reusable workspace and an RNG stream, both mutated
/// per query. Use one engine per thread; in the sharded execution model
/// (exec::ShardedStore) every shard's store embeds its own engine, which
/// is how the batch APIs parallelize without locks.
///
/// Error behavior: the constructor and set_config validate the config and
/// throw std::invalid_argument on violations (delta outside (0,1),
/// zero iteration budget, negative grid spacing); check() itself never
/// throws on well-formed subscriptions and allocates only on capacity
/// growth or when returning a witness (see EngineWorkspace).
class SubsumptionEngine {
 public:
  explicit SubsumptionEngine(EngineConfig config = {},
                             std::uint64_t seed = 0x5eedf00dULL);

  /// Decides s ⊑ (set[0] ∨ ... ∨ set[k-1]) per Algorithm 4.
  /// Precondition: every candidate shares s's attribute schema. Any range,
  /// of s or of a candidate, may be unbounded (the paper's (-inf, inf)
  /// insignificant attribute): after the prefilter, an infinite side of s
  /// that no candidate is unbounded on is a definite NO
  /// (kPolyhedronWitness), and every other infinite side is clamped just
  /// beyond the candidates' finite endpoints, where membership no longer
  /// depends on that attribute, so the clamped box is covered exactly
  /// when s is. A definite verdict is always correct; a probabilistic YES
  /// (is_definite == false) errs with probability at most config().delta.
  [[nodiscard]] SubsumptionResult check(const Subscription& s,
                                        std::span<const Subscription> set);

  /// As above over a pointer set — the zero-copy entry point used by the
  /// store layer after index pruning. Precondition: no null pointers.
  [[nodiscard]] SubsumptionResult check(const Subscription& s,
                                        std::span<const Subscription* const> set);

  /// Convenience overload.
  [[nodiscard]] SubsumptionResult check(const Subscription& s,
                                        const std::vector<Subscription>& set) {
    return check(s, std::span<const Subscription>(set));
  }

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  void set_config(const EngineConfig& config);

  /// Direct access to the RNG (tests inject known streams; the store
  /// snapshot captures/restores the stream for replay-identical restore).
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

 private:
  EngineConfig config_;
  util::Rng rng_;
  EngineWorkspace ws_;
};

/// Validates config invariants; throws std::invalid_argument on violation.
void validate(const EngineConfig& config);

}  // namespace psc::core
