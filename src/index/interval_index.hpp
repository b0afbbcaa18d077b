// IntervalIndex — per-attribute candidate index over a set of box
// subscriptions in the style of Yan & Garcia-Molina's counting matcher,
// made fully incremental (insert and erase by subscription id) and
// answering two queries:
//
//   * stab(point): ids of subscriptions whose box CONTAINS the point —
//     publication matching (Algorithm 5's active scan) without touching
//     subscriptions that cannot match;
//   * box_intersect(box): ids of subscriptions whose box INTERSECTS the
//     query box — the candidate-pruning step in front of the coverage
//     policies: a subscription disjoint from s can neither cover s
//     (pairwise or as part of a group) nor be covered by it, so the
//     subsumption pipeline only ever sees index-pruned candidates.
//
// The index distinguishes, per slot and attribute, between
//   * SELECTIVE intervals — those that do NOT cover the whole configured
//     domain (IndexConfig) — which enter the search structures below, and
//   * WIDE intervals — Interval::everything() or any interval containing
//     [domain_lo, domain_hi] — which cannot prune anything inside the
//     domain and are therefore kept out of the hot structures entirely
//     and handled by the exact verification pass (this matters: realistic
//     workloads encode "don't care" as the full domain, and indexing those
//     predicates would only add dead weight to every query).
// required_[slot] counts the selective attributes of a slot.
//
// Two complementary structures hold the selective intervals per attribute:
//
// 1. Sorted endpoint arrays (lower and upper bounds by value). Queries run
//    the counting algorithm in two phases over a probe box [qlo, qhi]
//    (interval [lo,hi] intersects it iff lo <= qhi AND hi >= qlo):
//      phase 1:  counts[slot] -= 1  for every upper endpoint hi <  qlo[j]
//      phase 2:  counts[slot] += 1  for every lower endpoint lo <= qhi[j]
//    Per selective attribute the net contribution is 1 iff the predicate
//    holds, so a slot survives iff its count reaches required_[slot];
//    since all decrements precede all increments the phase-2 running
//    count is monotone and crosses required_[slot] exactly once —
//    survivors are emitted mid-pass and the classical O(k) counts sweep
//    disappears. Counts are epoch-stamped, so a query touches only passed
//    endpoints. box_intersect runs on this structure, then re-checks the
//    emitted slots' wide attributes against the probe (a handful of
//    comparisons; selective attributes were counted exactly).
//
// 2. Bucketed candidate-mask bitmaps, stored as PAIRED LANES: the
//    attribute domain is split into B buckets, and each row mask[j][b] is
//    a 32-byte-aligned bitmap over slots with TWO interleaved 64-bit words
//    per slot group (even word then odd word, always in the same cache
//    line, so mutations pay for one line whether they write one lane or
//    both):
//      * POSSIBLE lane (even words): bit 1 iff the slot's selective
//        interval on attribute j overlaps bucket b;
//      * CERTAIN lane (odd words): bit 1 iff the slot's interval FULLY
//        COVERS bucket b — every point of the bucket matches attribute j,
//        so a slot whose certain bit survives the sweep on every
//        attribute needs NO verification at all. The lane is computed
//        exactly from bucket monotonicity, never from float boundary
//        arithmetic: with bl = bucket(lo) (-1 when lo = -inf) and
//        bh = bucket(hi) (B when hi = +inf), the certain span is
//        (bl, bh) exclusive — bucket(lo) < b < bucket(hi) forces
//        lo < v < hi for every real v in bucket b.
//    Rows are ZERO by default: free slots and attributes a slot is wide
//    on carry no row bits, so a slot's bits live only in the buckets its
//    interval spans (the certain span lies inside the possible span).
//    Instead, one paired WIDE row per attribute, wide[j] (both lanes
//    equal), has bit 1 iff the slot is wide on j — it stands in for the
//    all-ones bucket row such a slot would otherwise need.
//    A point probe is one fused word-parallel sweep
//        acc[w] &= mask[j][bucket(v_j)][w] | wide[j][w]
//    over both lanes of the attributes somebody constrains — a SIMD
//    kernel (util/simd.hpp) with block-level early exit on an all-zero
//    accumulator — leaving the possible-lane superset partitioned into
//    certain survivors (emitted directly; with ~97% of candidates being
//    true matches under realistic workloads this removes the dominant
//    verification cost) and an uncertain residue (possible & ~certain,
//    verified exactly against the packed verify records below). The wide
//    row is only read when some live slot is wide on j (selective_count_
//    below size_), so an all-selective index sweeps exactly one row per
//    attribute. stab runs here. Values outside the configured domain
//    clamp to the edge buckets, and the certain lane of an attribute is
//    only TRUSTED when the probe value is inside [domain_lo, domain_hi]
//    (a wide slot's certain bit is only valid for in-domain points, and
//    NaN probes must fail every comparison); untrusted attributes zero
//    the certainty lane and degrade to verify-everything. Only pruning
//    power degrades, never correctness.
//
// HOT-PATH SLOT DATA (structure-of-arrays, SIMD-friendly). Candidate
// emission is cache-miss-bound, so the per-slot state it touches lives in
// dedicated linear arrays instead of the colder bookkeeping vectors:
//   * verify_blob_ — per slot, ceil(m/4) packed 64-byte records [lo x4 |
//     hi x4] (32-byte aligned; padding lanes hold -inf/+inf so they pass
//     any real value), consumed by the branchless 4-lane SIMD verify;
//   * ids32_ — a 32-bit shadow of ids_; while every live id fits in 32
//     bits (big_id_count_ == 0) emission reads this array instead and
//     halves the id-fetch cache-line traffic.
// semantic_attrs_ / wide_attrs_ / the occupancy bitmap remain the scan
// metadata for the scalar ablation path.
//
// CHURN AMORTIZATION (two-tier mutation model). Endpoint arrays are cheap
// to query but O(k) to mutate (one memmove per selective attribute), which
// made sustained subscribe/unsubscribe churn dominate end-to-end cost at
// 100k+ actives. Mutations are therefore tiered:
//
//   * insert appends the slot to a small DELTA TIER: its candidate-mask
//     bits, wide bits and occupancy bit are written immediately (O(span)
//     per selective attribute — the buckets its interval overlaps, not
//     all B — so stab needs no special delta handling and keeps full
//     bitmap pruning), but its endpoints are NOT merged into the sorted
//     arrays yet. Instead they are appended to per-attribute DELTA RUNS —
//     generation-tagged endpoint logs sorted in small cache-resident
//     blocks as they fill — so the next compaction consumes a linear,
//     mostly-sorted stream instead of gathering scattered ranges_ rows.
//     box_intersect's counting path flat-scans the delta tier after the
//     counting pass (the delta is bounded by the compaction threshold);
//     the SIMD mask path needs no delta special case at all (mask bits
//     are already live).
//   * erase of a main-tier slot TOMBSTONES it: the occupancy bit is
//     cleared (stab exact immediately) and the slot is marked dead; its
//     stale endpoints stay in the sorted arrays until the next compaction
//     and are ignored at emission via an O(1) liveness check. Erase of a
//     delta-tier slot clears its mask bits over the same span and frees
//     it outright; its stale delta-run entries still count as a pending
//     mutation, so a stream of short-lived inserts cannot grow the logs
//     without ever compacting.
//   * when pending mutations (delta inserts, erased delta inserts and
//     tombstones) reach the compaction threshold (see IndexConfig),
//     COMPACTION merges the delta endpoints into the sorted arrays (one
//     filter + sorted merge per attribute, no per-element memmove),
//     trims the delta-run logs and releases tombstoned slots (clearing
//     their mask spans) — O(k + d log d) for d pending mutations, so
//     mutation cost is amortized O(log k) while both query paths stay
//     decision-for-decision identical to the eager index (property-tested
//     over churn traces in tests/tiered_index_test.cpp).
//
// IndexConfig::amortize_mutations = false restores the eager pre-tier
// behavior (sorted-insert + immediate endpoint removal) — kept as the
// measured ablation baseline for bench/perf_gate. Its mask writes are the
// same span-local ones.
//
// Both query paths are exact (closed-interval semantics identical to
// Subscription::contains_point / Subscription::intersects). That includes
// boxes with an empty range or a NaN endpoint, which contain no point and
// intersect nothing: such a subscription is kept out of every structure
// above (it only counts toward size/contains/erase), and such a probe box
// answers empty before either box_intersect path runs. Queries mutate
// only epoch/scratch state and are const, but not safe to run concurrently
// on one instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/subscription.hpp"
#include "util/flat_map.hpp"
#include "util/simd.hpp"

namespace psc::index {

/// Bucketing and churn-amortization parameters. The domain is a
/// performance hint, not a constraint: out-of-domain values clamp to the
/// edge buckets and are resolved by the exact verification pass. Query
/// RESULTS never depend on any of these knobs — only the work performed
/// does (see docs/TUNING.md for measured effects).
struct IndexConfig {
  core::Value domain_lo = 0.0;
  core::Value domain_hi = 1000.0;
  std::size_t bucket_count = 128;

  /// Two-tier mutation model (delta tier + tombstones + compaction). Off =
  /// the eager pre-tier path: O(k) sorted-insert / erase per mutation,
  /// kept as the perf-gate ablation baseline.
  bool amortize_mutations = true;
  /// Compaction fires when pending mutations (delta inserts, erased delta
  /// inserts and tombstones) reach max(compaction_min, compaction_slack *
  /// live size). The threshold bounds both the box_intersect delta scan
  /// and the stale endpoints a query may skip, so it trades mutation
  /// amortization against query-time overhead.
  std::size_t compaction_min = 256;
  double compaction_slack = 0.02;

  /// Use the vectorized query kernels when a SIMD backend was compiled in
  /// (simd::vectorized()); false forces the scalar ablation path in the
  /// same binary. Pure performance knob: both paths are property-tested
  /// decision-for-decision identical, so query RESULTS never depend on it
  /// (which is also why it is deliberately NOT part of the wire snapshot —
  /// a restoring process keeps its own default).
  bool use_simd = true;
};

/// Incremental candidate index over one fixed attribute schema (see file
/// comment for the data structures, query algorithms, and the two-tier
/// churn-amortized mutation model).
///
/// Thread-safety: externally single-threaded. stab/box_intersect are
/// const but advance epoch counters and reuse scratch buffers, so two
/// queries must not run concurrently on one instance; one index per
/// thread is the supported model. Query results never
/// depend on IndexConfig — only pruning power and mutation cost do.
class IntervalIndex {
 public:
  /// Index over a fixed schema of `attribute_count` attributes.
  /// `attribute_count` must be >= 1 and every inserted subscription and
  /// probe must carry exactly that many attributes.
  explicit IntervalIndex(std::size_t attribute_count, IndexConfig config = {});

  /// Indexes `sub` under its id. Throws std::invalid_argument on a schema
  /// mismatch, a duplicate id, or the invalid id 0; the index is
  /// unchanged when it throws. Amortized O(log k): the slot lands in the
  /// delta tier and endpoint merging is deferred to compaction.
  void insert(const core::Subscription& sub);

  /// Removes the subscription stored under `id`; false if unknown.
  /// Amortized O(1) plus its share of the next compaction (tombstoned lazy
  /// erase; see file comment).
  bool erase(core::SubscriptionId id);

  void clear();

  [[nodiscard]] std::size_t size() const noexcept {
    return size_ + unmatchable_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t attribute_count() const noexcept { return m_; }
  [[nodiscard]] const IndexConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool contains(core::SubscriptionId id) const {
    return slot_of_.contains(id) || unmatchable_.contains(id);
  }

  /// Appends to `out` the ids of all subscriptions whose box contains
  /// `point` (one value per attribute; throws std::invalid_argument on a
  /// size mismatch). Order is unspecified — callers needing determinism
  /// sort, as SubscriptionStore::match_active does. Exact closed-interval
  /// semantics, identical to Subscription::contains_point.
  void stab(std::span<const core::Value> point,
            std::vector<core::SubscriptionId>& out) const;
  [[nodiscard]] std::vector<core::SubscriptionId> stab(
      std::span<const core::Value> point) const;

  /// Appends to `out` the ids of all subscriptions whose box shares at
  /// least one point with `box` (throws std::invalid_argument on a schema
  /// mismatch). Order is unspecified. Exact, identical to
  /// Subscription::intersects.
  void box_intersect(const core::Subscription& box,
                     std::vector<core::SubscriptionId>& out) const;
  [[nodiscard]] std::vector<core::SubscriptionId> box_intersect(
      const core::Subscription& box) const;

  /// Candidates the most recent query EXAMINED: slots that reached the
  /// emission stage and were either certainty-emitted or exactly verified
  /// (for the counting path of box_intersect: emissions plus delta-tier
  /// and unselective probes). Deliberately NOT kernel work (bitmap words
  /// swept, endpoints passed): ops/sec regressions catch kernel
  /// slowdowns, while this number isolates PRUNING regressions — it is
  /// directly comparable against the k subscriptions a flat scan would
  /// examine, on every backend and scale tier.
  [[nodiscard]] std::uint64_t last_query_cost() const noexcept {
    return last_query_cost_;
  }

  // --- two-tier introspection (tests, benches, tuning) -----------------

  /// Live slots whose endpoints are not yet merged into the sorted arrays.
  [[nodiscard]] std::size_t delta_size() const noexcept {
    return delta_slots_.size();
  }
  /// Erased main-tier slots whose endpoints are still awaiting compaction.
  [[nodiscard]] std::size_t tombstone_count() const noexcept {
    return dead_slots_.size();
  }
  /// Entries in the delta-run logs, live or stale, over all attributes —
  /// at most 2 * attribute_count() per insert since the last compaction.
  [[nodiscard]] std::size_t delta_log_size() const noexcept {
    std::size_t total = 0;
    for (std::size_t j = 0; j < m_; ++j) {
      total += delta_lows_[j].size() + delta_highs_[j].size();
    }
    return total;
  }
  /// Compactions performed so far (threshold-triggered + forced).
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }
  /// Forces an immediate compaction (merges the delta tier, releases
  /// tombstones). Queries before and after return identical results; only
  /// the work distribution changes. No-op when nothing is pending.
  void compact();

 private:
  struct Endpoint {
    core::Value value;
    std::uint32_t slot;
  };
  /// Delta-run log entry: a pending endpoint plus the generation its slot
  /// had when appended. An entry is live iff the slot is still in the
  /// delta tier with the same generation — erased (and possibly reused)
  /// slots are filtered out by the tag, never by log surgery.
  struct DeltaEndpoint {
    core::Value value;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::uint32_t kNoPos = 0xffffffffU;
  /// Delta-run block size: appended log entries are sorted in place every
  /// time a block fills, while still cache-resident.
  static constexpr std::size_t kDeltaRun = 128;
  /// Verify records pack attributes in groups of 4 (one 64-byte record:
  /// four lows then four highs).
  static constexpr std::size_t kVerifyGroup = 4;

  std::size_t m_;
  IndexConfig config_;
  std::size_t size_ = 0;

  /// Per attribute: lower/upper endpoints of SELECTIVE intervals, sorted
  /// by value (ties in arbitrary order). Entries may reference tombstoned
  /// slots between compactions; emission checks liveness.
  std::vector<std::vector<Endpoint>> lows_;
  std::vector<std::vector<Endpoint>> highs_;
  /// Live slots (either tier) with a selective interval on attribute j —
  /// the stab sweep's skip test (endpoint-array emptiness no longer works:
  /// the delta tier has mask bits but no endpoints).
  std::vector<std::uint32_t> selective_count_;

  /// Slot-indexed state. Slots are stable across erasures (free list), so
  /// endpoint entries and bitmap bits never need renumbering. A tombstoned
  /// slot keeps its ranges_/required_ until compaction releases it.
  std::vector<core::SubscriptionId> ids_;      ///< kInvalid for free/dead slots
  std::vector<std::uint32_t> required_;        ///< selective attributes
  std::vector<core::Interval> ranges_;         ///< slot-major, m_ per slot
  /// Per-slot attribute bitmasks (bit j = attribute j; only meaningful for
  /// m_ <= 64, with a full-loop fallback otherwise):
  ///   semantic_attrs_ — attributes whose interval != everything() (what
  ///                     stab must verify on a candidate);
  ///   wide_attrs_     — semantically constrained but domain-covering
  ///                     (what box_intersect must re-check on a survivor).
  std::vector<std::uint64_t> semantic_attrs_;
  std::vector<std::uint64_t> wide_attrs_;
  std::vector<std::uint32_t> free_slots_;
  util::FlatMap<core::SubscriptionId, std::uint32_t> slot_of_;
  /// Ids of indexed subscriptions with an empty or NaN range: they match
  /// no query, so they hold no slot (see file comment).
  std::unordered_set<core::SubscriptionId> unmatchable_;

  /// Hot emission data (see file comment): packed 4-lane verify records,
  /// verify_groups_ * 8 doubles per slot, and the 32-bit id shadow used
  /// while big_id_count_ == 0. Stale rows of dead slots are never read
  /// (emission starts from the occupancy bitmap).
  std::size_t verify_groups_ = 1;
  simd::AlignedVector<double> verify_blob_;
  std::vector<std::uint32_t> ids32_;
  std::size_t big_id_count_ = 0;
  /// Slot reuse generations backing the DeltaEndpoint tags.
  std::vector<std::uint32_t> slot_gen_;

  /// Slots with no selective attribute bypass the counting pass of
  /// box_intersect entirely (they are emitted subject to wide-attribute
  /// verification only). unselective_pos_[slot] is the slot's position in
  /// unselective_slots_ (kNoPos otherwise) so erase is O(1).
  std::vector<std::uint32_t> unselective_slots_;
  std::vector<std::uint32_t> unselective_pos_;

  /// Delta tier: live slots whose endpoints await the next compaction.
  /// delta_pos_[slot] is the slot's position in delta_slots_ (kNoPos for
  /// main-tier slots); dead_slots_ are tombstoned main-tier slots.
  std::vector<std::uint32_t> delta_slots_;
  std::vector<std::uint32_t> delta_pos_;
  std::vector<std::uint32_t> dead_slots_;
  /// Delta-tier slots erased since the last compaction: their delta-run
  /// entries stay in the logs until compaction filters them out.
  std::size_t erased_delta_count_ = 0;
  std::uint64_t compactions_ = 0;
  /// Per-attribute delta-run logs (pending low/high endpoints of delta-
  /// tier slots, block-sorted as they fill; see file comment).
  std::vector<std::vector<DeltaEndpoint>> delta_lows_;
  std::vector<std::vector<DeltaEndpoint>> delta_highs_;

  /// Candidate-mask rows, m_ * bucket_count of them, 2 * words_ words
  /// each in the paired possible/certain lane layout (even word =
  /// possible, odd word = certain; see file comment); zero outside a
  /// slot's bucket span, so free slots and wide attributes carry no bits.
  /// wide_bits_ holds m_ more rows (bit 1 iff the slot is wide on j; set
  /// or cleared at insert, so a free slot's bit is stale until reuse and
  /// only the occupancy row hides it), paired like the occupancy row with
  /// both lanes identical so the sweep kernels read them like any mask
  /// row. 32-byte aligned, words_ always a multiple of simd::kBlockWords.
  std::size_t words_ = 0;          ///< words per bitmap LANE
  std::size_t slot_capacity_ = 0;  ///< slots representable, words_ * 64
  simd::AlignedVector<Word> mask_bits_;
  simd::AlignedVector<Word> wide_bits_;
  simd::AlignedVector<Word> occupied_bits_;

  /// Lazily-reset counting state for box_intersect (epoch stamp instead of
  /// an O(k) clear).
  mutable std::vector<std::int32_t> counts_;
  mutable std::vector<std::uint64_t> epochs_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::uint64_t last_query_cost_ = 0;
  mutable simd::AlignedVector<Word> acc_scratch_;  ///< paired accumulator
  mutable std::vector<Word> or_possible_scratch_;  ///< box OR over span
  mutable std::vector<Word> or_certain_scratch_;   ///< box OR over interior
  mutable std::vector<std::uint32_t> certain_scratch_;  ///< emitted directly
  mutable std::vector<std::uint32_t> verify_scratch_;   ///< exact-verified
  mutable simd::AlignedVector<double> query_pad_;  ///< padded probe values

  /// True iff the interval cannot prune inside the configured domain.
  [[nodiscard]] bool is_wide(const core::Interval& iv) const noexcept;
  [[nodiscard]] std::size_t bucket_of(core::Value v) const noexcept;
  [[nodiscard]] std::size_t words_in_use() const noexcept {
    return (ids_.size() + kWordBits - 1) / kWordBits;
  }
  /// Words per lane actually swept: words_in_use padded to a whole SIMD
  /// block (padding words hold zero occupancy, so sweeping them is inert).
  [[nodiscard]] std::size_t sweep_words() const noexcept {
    return std::min(simd::padded_words(words_in_use()), words_);
  }
  /// A row's paired lanes: word 2w is the possible lane, 2w + 1 the
  /// certain lane of slot group w.
  [[nodiscard]] Word* pair_row(std::size_t attribute, std::size_t bucket) noexcept {
    return mask_bits_.data() +
           (attribute * config_.bucket_count + bucket) * 2 * words_;
  }
  [[nodiscard]] const Word* pair_row(std::size_t attribute,
                                     std::size_t bucket) const noexcept {
    return mask_bits_.data() +
           (attribute * config_.bucket_count + bucket) * 2 * words_;
  }
  [[nodiscard]] const Word* wide_row(std::size_t attribute) const noexcept {
    return wide_bits_.data() + attribute * 2 * words_;
  }
  /// True iff some live slot is wide on `attribute`, i.e. its wide row
  /// can contribute to a query.
  [[nodiscard]] bool has_wide(std::size_t attribute) const noexcept {
    return selective_count_[attribute] < size_;
  }
  /// True iff the slot's box contains the point / intersects the box,
  /// checking only the attributes in `attrs` (m_ <= 64) or all of them.
  [[nodiscard]] bool verify_stab(std::uint32_t slot,
                                 std::span<const core::Value> point) const;
  [[nodiscard]] bool verify_box(std::uint32_t slot, const core::Subscription& box,
                                std::uint64_t attrs) const;
  /// Vectorized query paths (candidate-mask sweep + certainty lane + SIMD
  /// verify); selected when config_.use_simd and a SIMD backend exists,
  /// and the probe carries no NaN (a NaN value must fail its own
  /// attribute but pass unconstrained ones — only the scalar semantic-
  /// mask verify distinguishes the two).
  void stab_simd(std::span<const core::Value> point,
                 std::vector<core::SubscriptionId>& out) const;
  void box_intersect_simd(const core::Subscription& box,
                          std::vector<core::SubscriptionId>& out) const;
  /// Drains the paired accumulator: certain survivors emit their id
  /// directly, uncertain ones (possible & ~certain) go through `verify`
  /// (a slot -> bool predicate). Returns candidates examined.
  template <typename Verify>
  std::uint64_t emit_candidates(std::vector<core::SubscriptionId>& out,
                                Verify&& verify) const;
  /// Writes the slot's mask bits for one selective attribute over the
  /// buckets its interval overlaps: on `set`, possible lane 1 there and
  /// certain lane 1 in the buckets it fully covers; otherwise both lanes
  /// back to 0. Buckets outside the span are never touched.
  void write_mask_bits(std::size_t attribute, std::uint32_t slot,
                       const core::Interval& iv, bool set);
  /// Writes the slot's packed verify records (padding lanes -inf/+inf).
  void write_verify_row(std::uint32_t slot, const core::Subscription& sub);
  void grow_bitmaps();
  void remove_endpoint(std::vector<Endpoint>& endpoints, core::Value value,
                       std::uint32_t slot);
  /// Clears a slot's mask bits on every selective attribute (the free-
  /// slot all-zero state), recomputing the spans from ranges_.
  void clear_mask_bits(std::uint32_t slot);
  /// Resets per-slot state and returns the slot to the free list. The
  /// caller must already have removed its endpoints and cleared its mask.
  void release_slot(std::uint32_t slot);
  /// Pending mutations that the next compaction will fold in.
  [[nodiscard]] std::size_t pending_mutations() const noexcept {
    return delta_slots_.size() + erased_delta_count_ + dead_slots_.size();
  }
  [[nodiscard]] std::size_t compaction_threshold() const noexcept;
  void maybe_compact();
};

}  // namespace psc::index
