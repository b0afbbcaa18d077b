#include "index/interval_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace psc::index {

using core::Interval;
using core::Subscription;
using core::SubscriptionId;
using core::Value;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct EndpointLess {
  template <typename Endpoint>
  bool operator()(const Endpoint& a, const Endpoint& b) const {
    return a.value < b.value;
  }
};

}  // namespace

IntervalIndex::IntervalIndex(std::size_t attribute_count, IndexConfig config)
    : m_(attribute_count), config_(config), lows_(attribute_count),
      highs_(attribute_count), selective_count_(attribute_count, 0),
      verify_groups_((attribute_count + kVerifyGroup - 1) / kVerifyGroup),
      delta_lows_(attribute_count), delta_highs_(attribute_count) {
  if (!(config_.domain_lo < config_.domain_hi)) {
    throw std::invalid_argument("IndexConfig: domain_lo must be < domain_hi");
  }
  if (config_.bucket_count == 0) {
    throw std::invalid_argument("IndexConfig: bucket_count must be > 0");
  }
  if (config_.compaction_slack < 0.0) {
    throw std::invalid_argument("IndexConfig: compaction_slack must be >= 0");
  }
  // Two padded probe rows (stab point / box lows+highs), zero-filled so
  // padding lanes always hold comparable reals.
  query_pad_.assign(2 * verify_groups_ * kVerifyGroup, 0.0);
}

bool IntervalIndex::is_wide(const Interval& iv) const noexcept {
  return iv.lo <= config_.domain_lo && iv.hi >= config_.domain_hi;
}

std::size_t IntervalIndex::bucket_of(Value v) const noexcept {
  // Clamp out-of-domain (and infinite) values to the edge buckets; the
  // exact verification pass absorbs the lost selectivity.
  if (!(v > config_.domain_lo)) return 0;
  if (!(v < config_.domain_hi)) return config_.bucket_count - 1;
  const double fraction =
      (v - config_.domain_lo) / (config_.domain_hi - config_.domain_lo);
  std::size_t bucket =
      static_cast<std::size_t>(fraction * static_cast<double>(config_.bucket_count));
  if (bucket >= config_.bucket_count) bucket = config_.bucket_count - 1;
  return bucket;
}

std::size_t IntervalIndex::compaction_threshold() const noexcept {
  const auto slack = static_cast<std::size_t>(
      config_.compaction_slack * static_cast<double>(size_));
  return std::max<std::size_t>(std::max(config_.compaction_min, slack), 1);
}

void IntervalIndex::grow_bitmaps() {
  const std::size_t new_words =
      words_ == 0 ? simd::kBlockWords : words_ * 2;
  // Every row (mask, wide, occupancy) defaults to all-zero: new slots are
  // free, and a free slot carries no bits.
  const auto regrow = [&](simd::AlignedVector<Word>& bits, std::size_t rows) {
    simd::AlignedVector<Word> grown(rows * 2 * new_words, 0);
    for (std::size_t row = 0; row < rows; ++row) {
      std::copy_n(
          bits.begin() + static_cast<std::ptrdiff_t>(row * 2 * words_),
          2 * words_,
          grown.begin() + static_cast<std::ptrdiff_t>(row * 2 * new_words));
    }
    bits = std::move(grown);
  };
  regrow(mask_bits_, m_ * config_.bucket_count);
  regrow(wide_bits_, m_);
  regrow(occupied_bits_, 1);
  words_ = new_words;
  slot_capacity_ = words_ * kWordBits;
}

void IntervalIndex::write_mask_bits(std::size_t attribute, std::uint32_t slot,
                                    const Interval& iv, bool set) {
  const std::size_t word = 2 * (slot / kWordBits);
  const Word mask = Word{1} << (slot % kWordBits);
  const auto buckets = static_cast<std::ptrdiff_t>(config_.bucket_count);
  // Possible span: the clamped endpoint buckets (empty when lo > hi).
  const auto first = static_cast<std::ptrdiff_t>(bucket_of(iv.lo));
  const auto last = static_cast<std::ptrdiff_t>(bucket_of(iv.hi));
  if (!set) {
    for (std::ptrdiff_t bucket = first; bucket <= last; ++bucket) {
      Word* row = pair_row(attribute, static_cast<std::size_t>(bucket)) + word;
      row[0] &= ~mask;
      row[1] &= ~mask;
    }
    return;
  }
  // Exact certain span via bucket monotonicity (header file comment):
  // strictly between the endpoint buckets, saturating past the edges for
  // infinite endpoints, and always inside the possible span. bucket(lo) <
  // b < bucket(hi) forces lo < v < hi for every real v in bucket b — pure
  // integer compares, no float boundary arithmetic to get subtly wrong. A
  // NaN or empty interval voids every certainty claim (its possible bits
  // already come from the clamped endpoint buckets; verification rejects).
  std::ptrdiff_t cfirst = (iv.lo == -kInf ? -1 : first) + 1;
  std::ptrdiff_t clast = (iv.hi == kInf ? buckets : last) - 1;
  if (!(iv.lo <= iv.hi)) {
    cfirst = 1;
    clast = 0;
  }
  for (std::ptrdiff_t bucket = first; bucket <= last; ++bucket) {
    Word* row = pair_row(attribute, static_cast<std::size_t>(bucket)) + word;
    row[0] |= mask;
    if (bucket >= cfirst && bucket <= clast) row[1] |= mask;
  }
}

void IntervalIndex::write_verify_row(std::uint32_t slot,
                                     const Subscription& sub) {
  const std::size_t row_doubles = verify_groups_ * 2 * kVerifyGroup;
  if (verify_blob_.size() < (slot + 1) * row_doubles) {
    verify_blob_.resize((slot + 1) * row_doubles);
  }
  double* rec = verify_blob_.data() + slot * row_doubles;
  for (std::size_t g = 0; g < verify_groups_; ++g) {
    for (std::size_t lane = 0; lane < kVerifyGroup; ++lane) {
      const std::size_t j = g * kVerifyGroup + lane;
      rec[g * 2 * kVerifyGroup + lane] = j < m_ ? sub.range(j).lo : -kInf;
      rec[g * 2 * kVerifyGroup + kVerifyGroup + lane] =
          j < m_ ? sub.range(j).hi : kInf;
    }
  }
}

void IntervalIndex::clear_mask_bits(std::uint32_t slot) {
  const Interval* slot_ranges = ranges_.data() + slot * m_;
  for (std::size_t j = 0; j < m_; ++j) {
    if (is_wide(slot_ranges[j])) continue;  // never written: still zero
    write_mask_bits(j, slot, slot_ranges[j], /*set=*/false);
  }
}

void IntervalIndex::release_slot(std::uint32_t slot) {
  ids_[slot] = core::kInvalidSubscriptionId;
  required_[slot] = 0;
  semantic_attrs_[slot] = 0;
  wide_attrs_[slot] = 0;
  delta_pos_[slot] = kNoPos;
  unselective_pos_[slot] = kNoPos;
  ++slot_gen_[slot];  // invalidates this slot's pending delta-run entries
  free_slots_.push_back(slot);
}

void IntervalIndex::insert(const Subscription& sub) {
  if (sub.attribute_count() != m_) {
    throw std::invalid_argument("IntervalIndex::insert: schema mismatch");
  }
  if (sub.id() == core::kInvalidSubscriptionId) {
    throw std::invalid_argument("IntervalIndex::insert: id must be non-zero");
  }
  if (slot_of_.contains(sub.id())) {
    throw std::invalid_argument("IntervalIndex::insert: duplicate id " +
                                std::to_string(sub.id()));
  }

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(core::kInvalidSubscriptionId);
    ids32_.push_back(0);
    slot_gen_.push_back(0);
    required_.push_back(0);
    ranges_.resize(ranges_.size() + m_, Interval::everything());
    semantic_attrs_.push_back(0);
    wide_attrs_.push_back(0);
    delta_pos_.push_back(kNoPos);
    unselective_pos_.push_back(kNoPos);
    counts_.push_back(0);
    epochs_.push_back(0);
    if (slot >= slot_capacity_) grow_bitmaps();
  }

  ids_[slot] = sub.id();
  ids32_[slot] = static_cast<std::uint32_t>(sub.id());
  if ((sub.id() >> 32) != 0) ++big_id_count_;
  (void)slot_of_.try_emplace(sub.id(), slot);
  write_verify_row(slot, sub);

  std::uint32_t required = 0;
  std::uint64_t semantic_mask = 0;
  std::uint64_t wide_mask = 0;
  const std::size_t slot_word = 2 * (slot / kWordBits);
  const Word slot_bit = Word{1} << (slot % kWordBits);
  for (std::size_t j = 0; j < m_; ++j) {
    const Interval& iv = sub.range(j);
    ranges_[slot * m_ + j] = iv;
    const std::uint64_t bit = j < 64 ? std::uint64_t{1} << j : 0;
    if (iv != Interval::everything()) semantic_mask |= bit;
    Word* wide = wide_bits_.data() + j * 2 * words_ + slot_word;
    if (is_wide(iv)) {
      wide[0] |= slot_bit;
      wide[1] |= slot_bit;
      if (iv != Interval::everything()) wide_mask |= bit;
      continue;
    }
    wide[0] &= ~slot_bit;
    wide[1] &= ~slot_bit;
    ++required;
    ++selective_count_[j];
    if (!config_.amortize_mutations) {
      // Eager (pre-tier) path: O(k) sorted insert per selective attribute.
      auto& lows = lows_[j];
      lows.insert(std::upper_bound(lows.begin(), lows.end(),
                                   Endpoint{iv.lo, slot}, EndpointLess{}),
                  Endpoint{iv.lo, slot});
      auto& highs = highs_[j];
      highs.insert(std::upper_bound(highs.begin(), highs.end(),
                                    Endpoint{iv.hi, slot}, EndpointLess{}),
                   Endpoint{iv.hi, slot});
    } else {
      // Delta-run logs: cheap appends now, a linear mostly-sorted stream
      // for the next compaction. Block-sort each run as it fills, while
      // its entries are still cache-resident.
      const auto append = [&](std::vector<DeltaEndpoint>& log, Value value) {
        log.push_back(DeltaEndpoint{value, slot, slot_gen_[slot]});
        if (log.size() % kDeltaRun == 0) {
          std::sort(log.end() - static_cast<std::ptrdiff_t>(kDeltaRun),
                    log.end(), EndpointLess{});
        }
      };
      append(delta_lows_[j], iv.lo);
      append(delta_highs_[j], iv.hi);
    }
    write_mask_bits(j, slot, iv, /*set=*/true);
  }
  required_[slot] = required;
  semantic_attrs_[slot] = semantic_mask;
  wide_attrs_[slot] = wide_mask;
  if (required == 0) {
    unselective_pos_[slot] =
        static_cast<std::uint32_t>(unselective_slots_.size());
    unselective_slots_.push_back(slot);
  } else if (config_.amortize_mutations) {
    // Delta tier: masks are live (stab prunes normally); endpoints wait
    // for the next compaction.
    delta_pos_[slot] = static_cast<std::uint32_t>(delta_slots_.size());
    delta_slots_.push_back(slot);
  }
  occupied_bits_[slot_word] |= slot_bit;
  occupied_bits_[slot_word + 1] |= slot_bit;
  ++size_;
  maybe_compact();
}

void IntervalIndex::remove_endpoint(std::vector<Endpoint>& endpoints,
                                    Value value, std::uint32_t slot) {
  const auto [first, last] = std::equal_range(
      endpoints.begin(), endpoints.end(), Endpoint{value, slot}, EndpointLess{});
  for (auto it = first; it != last; ++it) {
    if (it->slot == slot) {
      endpoints.erase(it);
      return;
    }
  }
  throw std::logic_error("IntervalIndex: endpoint missing on erase");
}

bool IntervalIndex::erase(SubscriptionId id) {
  const std::uint32_t* found = slot_of_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  slot_of_.erase(id);
  if ((id >> 32) != 0) --big_id_count_;

  const std::size_t occ_word = 2 * (slot / kWordBits);
  const Word occ_mask = Word{1} << (slot % kWordBits);
  occupied_bits_[occ_word] &= ~occ_mask;
  occupied_bits_[occ_word + 1] &= ~occ_mask;
  const Interval* slot_ranges = ranges_.data() + slot * m_;
  for (std::size_t j = 0; j < m_; ++j) {
    if (!is_wide(slot_ranges[j])) --selective_count_[j];
  }

  if (required_[slot] == 0) {
    // Unselective slots have no endpoints and no mask bits:
    // release immediately in O(1) via the position index.
    const std::uint32_t pos = unselective_pos_[slot];
    const std::uint32_t moved = unselective_slots_.back();
    unselective_slots_[pos] = moved;
    unselective_pos_[moved] = pos;
    unselective_slots_.pop_back();
    unselective_pos_[slot] = kNoPos;
    release_slot(slot);
  } else if (delta_pos_[slot] != kNoPos) {
    // Delta-tier slot: no merged endpoints exist yet; clear its mask span
    // and release outright. Its delta-run entries die with the generation
    // bump in release_slot — no log surgery — but stay in the logs until
    // the next compaction, so they count as a pending mutation.
    const std::uint32_t pos = delta_pos_[slot];
    const std::uint32_t moved = delta_slots_.back();
    delta_slots_[pos] = moved;
    delta_pos_[moved] = pos;
    delta_slots_.pop_back();
    delta_pos_[slot] = kNoPos;
    ++erased_delta_count_;
    clear_mask_bits(slot);
    release_slot(slot);
  } else if (config_.amortize_mutations) {
    // Tombstoned lazy erase: the occupancy bit already hides the slot from
    // stab; its stale endpoints are skipped at emission (ids_ == kInvalid)
    // and reclaimed by the next compaction. ranges_/required_ survive
    // until then (compaction needs them to clear the mask span).
    ids_[slot] = core::kInvalidSubscriptionId;
    dead_slots_.push_back(slot);
  } else {
    // Eager path: O(k) endpoint removal per selective attribute.
    for (std::size_t j = 0; j < m_; ++j) {
      const Interval& iv = slot_ranges[j];
      if (is_wide(iv)) continue;
      remove_endpoint(lows_[j], iv.lo, slot);
      remove_endpoint(highs_[j], iv.hi, slot);
      write_mask_bits(j, slot, iv, /*set=*/false);
    }
    release_slot(slot);
  }
  --size_;
  maybe_compact();
  return true;
}

void IntervalIndex::maybe_compact() {
  if (!config_.amortize_mutations) return;
  if (pending_mutations() >= compaction_threshold()) compact();
}

void IntervalIndex::compact() {
  if (pending_mutations() == 0) return;
  ++compactions_;

  // Per attribute: drop endpoints of tombstoned slots in place (they are
  // exactly the entries whose slot id is kInvalid — dead slots are not
  // released, so no freed-and-reused slot can alias one), then fold the
  // delta-run log in. The log is consumed linearly (block-sorted runs, so
  // the tail sort sees mostly-ordered input); entries of erased delta
  // slots are dropped by their generation tag.
  const auto is_dead = [this](const Endpoint& e) {
    return ids_[e.slot] == core::kInvalidSubscriptionId;
  };
  for (std::size_t j = 0; j < m_; ++j) {
    auto merge_in = [&](std::vector<Endpoint>& endpoints,
                        std::vector<DeltaEndpoint>& log) {
      if (!dead_slots_.empty()) {
        endpoints.erase(
            std::remove_if(endpoints.begin(), endpoints.end(), is_dead),
            endpoints.end());
      }
      const auto mid = static_cast<std::ptrdiff_t>(endpoints.size());
      for (const DeltaEndpoint& e : log) {
        if (delta_pos_[e.slot] != kNoPos && slot_gen_[e.slot] == e.gen) {
          endpoints.push_back(Endpoint{e.value, e.slot});
        }
      }
      log.clear();
      std::sort(endpoints.begin() + mid, endpoints.end(), EndpointLess{});
      std::inplace_merge(endpoints.begin(), endpoints.begin() + mid,
                         endpoints.end(), EndpointLess{});
    };
    merge_in(lows_[j], delta_lows_[j]);
    merge_in(highs_[j], delta_highs_[j]);
  }

  for (const std::uint32_t slot : dead_slots_) {
    clear_mask_bits(slot);
    release_slot(slot);
  }
  dead_slots_.clear();
  erased_delta_count_ = 0;
  for (const std::uint32_t slot : delta_slots_) delta_pos_[slot] = kNoPos;
  delta_slots_.clear();
}

void IntervalIndex::clear() {
  for (std::size_t j = 0; j < m_; ++j) {
    lows_[j].clear();
    highs_[j].clear();
    delta_lows_[j].clear();
    delta_highs_[j].clear();
    selective_count_[j] = 0;
  }
  ids_.clear();
  ids32_.clear();
  slot_gen_.clear();
  big_id_count_ = 0;
  required_.clear();
  ranges_.clear();
  verify_blob_.clear();
  semantic_attrs_.clear();
  wide_attrs_.clear();
  free_slots_.clear();
  slot_of_.clear();
  unselective_slots_.clear();
  unselective_pos_.clear();
  delta_slots_.clear();
  delta_pos_.clear();
  dead_slots_.clear();
  erased_delta_count_ = 0;
  counts_.clear();
  epochs_.clear();
  mask_bits_.clear();
  wide_bits_.clear();
  occupied_bits_.clear();
  words_ = 0;
  slot_capacity_ = 0;
  size_ = 0;
}

bool IntervalIndex::verify_stab(std::uint32_t slot,
                                std::span<const Value> point) const {
  const Interval* slot_ranges = ranges_.data() + slot * m_;
  if (m_ <= 64) {
    std::uint64_t attrs = semantic_attrs_[slot];
    while (attrs != 0) {
      const std::size_t j = static_cast<std::size_t>(std::countr_zero(attrs));
      attrs &= attrs - 1;
      if (!slot_ranges[j].contains(point[j])) return false;
    }
    return true;
  }
  for (std::size_t j = 0; j < m_; ++j) {
    if (!slot_ranges[j].contains(point[j])) return false;
  }
  return true;
}

bool IntervalIndex::verify_box(std::uint32_t slot, const Subscription& box,
                               std::uint64_t attrs) const {
  const Interval* slot_ranges = ranges_.data() + slot * m_;
  if (m_ <= 64) {
    while (attrs != 0) {
      const std::size_t j = static_cast<std::size_t>(std::countr_zero(attrs));
      attrs &= attrs - 1;
      if (!slot_ranges[j].intersects(box.range(j))) return false;
    }
    return true;
  }
  for (std::size_t j = 0; j < m_; ++j) {
    if (!slot_ranges[j].intersects(box.range(j))) return false;
  }
  return true;
}

template <typename Verify>
std::uint64_t IntervalIndex::emit_candidates(
    std::vector<SubscriptionId>& out, Verify&& verify) const {
  const std::size_t paired = 2 * sweep_words();
  const Word* acc = acc_scratch_.data();
  if (certain_scratch_.size() < slot_capacity_) {
    certain_scratch_.resize(slot_capacity_);
    verify_scratch_.resize(slot_capacity_);
  }
  // Pass 1: decode the paired accumulator into certain / uncertain slot
  // lists (word-at-a-time bit iteration, whole zero blocks skipped).
  std::uint32_t* certain = certain_scratch_.data();
  std::uint32_t* uncertain = verify_scratch_.data();
  std::size_t n_certain = 0, n_uncertain = 0;
  for (std::size_t w = 0; w < paired; w += 2 * simd::kBlockWords) {
    if (simd::testz(acc + w, 2 * simd::kBlockWords)) continue;
    for (std::size_t k = w; k < w + 2 * simd::kBlockWords; k += 2) {
      const Word possible = acc[k];
      if (possible == 0) continue;
      const Word sure = possible & acc[k + 1];
      const auto base = static_cast<std::uint32_t>((k / 2) * kWordBits);
      Word bits = sure;
      while (bits != 0) {
        certain[n_certain++] =
            base + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
      bits = possible & ~sure;
      while (bits != 0) {
        uncertain[n_uncertain++] =
            base + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
  }
  // Pass 2: emit. Certainty-certified slots only touch the id array (the
  // 32-bit shadow while every live id fits); the uncertain residue runs
  // the exact SIMD verify against the packed records. Software prefetch
  // hides the data-dependent line fetches both loops are bound by.
  const bool small_ids = big_id_count_ == 0;
  const double* blob = verify_blob_.data();
  const std::size_t row_doubles = verify_groups_ * 2 * kVerifyGroup;
  for (std::size_t i = 0; i < n_certain; ++i) {
    if (i + 32 < n_certain) {
      simd::prefetch(small_ids
                         ? static_cast<const void*>(ids32_.data() + certain[i + 32])
                         : static_cast<const void*>(ids_.data() + certain[i + 32]));
    }
    const std::uint32_t slot = certain[i];
    out.push_back(small_ids ? ids32_[slot] : ids_[slot]);
  }
  for (std::size_t i = 0; i < n_uncertain; ++i) {
    if (i + 16 < n_uncertain) {
      simd::prefetch(blob + uncertain[i + 16] * row_doubles);
    }
    const std::uint32_t slot = uncertain[i];
    if (verify(slot)) out.push_back(small_ids ? ids32_[slot] : ids_[slot]);
  }
  return n_certain + n_uncertain;
}

void IntervalIndex::stab_simd(std::span<const Value> point,
                              std::vector<SubscriptionId>& out) const {
  const std::size_t paired = 2 * sweep_words();
  if (acc_scratch_.size() < 2 * words_) acc_scratch_.resize(2 * words_);
  Word* acc = acc_scratch_.data();
  std::copy_n(occupied_bits_.begin(), paired, acc);

  // Fused paired-lane sweep with per-attribute early exit. The certain
  // lane of an attribute is only trusted for in-domain probe values (see
  // the header): out-of-domain or non-comparable values zero it and fall
  // back to verify-everything, for that attribute's contribution.
  bool zero_certain = false;
  for (std::size_t j = 0; j < m_; ++j) {
    const Value v = point[j];
    const bool trusted = v >= config_.domain_lo && v <= config_.domain_hi;
    if (selective_count_[j] == 0) {
      // Nobody live constrains j selectively: every live slot is wide on
      // it, so row | wide is all-ones and the sweep skips the AND. The
      // implicit all-ones certain lane is only valid in-domain.
      if (!trusted) zero_certain = true;
      continue;
    }
    const Word* row = pair_row(j, bucket_of(v));
    bool alive;
    if (has_wide(j)) {
      // Wide slots pass on both lanes; an untrusted certain lane is voided
      // at the end instead (zeroing it now or later leaves the same acc).
      alive = simd::and_or_into(acc, row, wide_row(j), paired);
      if (!trusted) zero_certain = true;
    } else {
      alive = trusted ? simd::and_into(acc, row, paired)
                      : simd::and_into_even(acc, row, paired);
    }
    if (!alive) {
      last_query_cost_ = 0;
      return;
    }
  }
  if (zero_certain) simd::zero_odd_words(acc, paired);

  double* padded = query_pad_.data();
  for (std::size_t lane = 0; lane < verify_groups_ * kVerifyGroup; ++lane) {
    padded[lane] = lane < m_ ? point[lane] : 0.0;
  }
  const double* blob = verify_blob_.data();
  const std::size_t row_doubles = verify_groups_ * 2 * kVerifyGroup;
  last_query_cost_ = emit_candidates(out, [&](std::uint32_t slot) {
    const double* rec = blob + slot * row_doubles;
    for (std::size_t g = 0; g < verify_groups_; ++g) {
      if (!simd::contains4(padded + g * kVerifyGroup,
                           rec + g * 2 * kVerifyGroup)) {
        return false;
      }
    }
    return true;
  });
}

void IntervalIndex::stab(std::span<const Value> point,
                         std::vector<SubscriptionId>& out) const {
  if (point.size() != m_) {
    throw std::invalid_argument("IntervalIndex::stab: schema mismatch");
  }
  if (size_ == 0) {
    last_query_cost_ = 0;
    return;
  }
  if (config_.use_simd && simd::vectorized()) {
    // The vectorized verify checks the full padded schema, which is only
    // equivalent to the semantic-mask verify for comparable values: a NaN
    // must fail constrained attributes yet pass unconstrained ones.
    bool has_nan = false;
    for (std::size_t j = 0; j < m_; ++j) {
      if (std::isnan(point[j])) {
        has_nan = true;
        break;
      }
    }
    if (!has_nan) {
      stab_simd(point, out);
      return;
    }
  }

  std::uint64_t cost = 0;
  const std::size_t words = words_in_use();

  // Scalar ablation path: the pre-vectorization fused word sweep, reading
  // the possible lane of the paired rows (ORed with the wide row when
  // some live slot is wide on the attribute). Delta-tier slots
  // participate like main-tier ones (their mask bits are written at
  // insert time); tombstoned slots are excluded by the occupancy row.
  // Attributes nobody (live) constrains selectively are skipped outright:
  // every live slot passes them.
  if (acc_scratch_.size() < 2 * words_) acc_scratch_.resize(2 * words_);
  Word* acc = acc_scratch_.data();
  for (std::size_t w = 0; w < words; ++w) acc[w] = occupied_bits_[2 * w];
  for (std::size_t j = 0; j < m_; ++j) {
    if (selective_count_[j] == 0) continue;
    const Word* row = pair_row(j, bucket_of(point[j]));
    if (has_wide(j)) {
      const Word* wide = wide_row(j);
      for (std::size_t w = 0; w < words; ++w) acc[w] &= row[2 * w] | wide[2 * w];
    } else {
      for (std::size_t w = 0; w < words; ++w) acc[w] &= row[2 * w];
    }
  }

  // Exact verification of the surviving bucket-granularity superset.
  for (std::size_t w = 0; w < words; ++w) {
    Word bits = acc[w];
    while (bits != 0) {
      const std::uint32_t slot = static_cast<std::uint32_t>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      ++cost;
      if (verify_stab(slot, point)) out.push_back(ids_[slot]);
    }
  }
  last_query_cost_ = cost;
}

std::vector<SubscriptionId> IntervalIndex::stab(
    std::span<const Value> point) const {
  std::vector<SubscriptionId> out;
  stab(point, out);
  return out;
}

void IntervalIndex::box_intersect_simd(const Subscription& box,
                                       std::vector<SubscriptionId>& out) const {
  const std::size_t wp = sweep_words();
  const std::size_t paired = 2 * wp;
  if (acc_scratch_.size() < 2 * words_) acc_scratch_.resize(2 * words_);
  if (or_possible_scratch_.size() < words_) {
    or_possible_scratch_.resize(words_);
    or_certain_scratch_.resize(words_);
  }
  Word* acc = acc_scratch_.data();
  std::copy_n(occupied_bits_.begin(), paired, acc);
  Word* or_possible = or_possible_scratch_.data();
  Word* or_certain = or_certain_scratch_.data();

  // Per attribute: OR the possible lane over the query's bucket span. A
  // slot overlapping any INTERIOR bucket of the span certainly intersects
  // on this attribute (the span's endpoint buckets only prove bucket-
  // granularity overlap), so the interior OR doubles as the certainty
  // contribution. Bucket-outer/word-inner order keeps each row streaming.
  bool zero_certain = false;
  for (std::size_t j = 0; j < m_; ++j) {
    const Interval& q = box.range(j);
    if (selective_count_[j] == 0) {
      // Every live slot is wide on j (covers the whole domain), which
      // certainly overlaps the query iff the query reaches strictly
      // inside the domain from both sides.
      if (!(bucket_of(q.hi) >= 1 &&
            bucket_of(q.lo) + 2 <= config_.bucket_count)) {
        zero_certain = true;
      }
      continue;
    }
    const std::size_t first = bucket_of(q.lo);
    const std::size_t last = bucket_of(q.hi);
    std::fill_n(or_certain, wp, Word{0});
    for (std::size_t b = first + 1; b + 1 <= last; ++b) {
      const Word* row = pair_row(j, b);
      for (std::size_t w = 0; w < wp; ++w) or_certain[w] |= row[2 * w];
    }
    std::copy_n(or_certain, wp, or_possible);
    {
      const Word* row = pair_row(j, first);
      for (std::size_t w = 0; w < wp; ++w) or_possible[w] |= row[2 * w];
    }
    if (last != first) {
      const Word* row = pair_row(j, last);
      for (std::size_t w = 0; w < wp; ++w) or_possible[w] |= row[2 * w];
    }
    if (has_wide(j)) {
      // A wide slot overlaps every bucket of the span: possible always,
      // certain when the span has an interior bucket — exactly what an
      // all-ones bucket row would contribute.
      const Word* wide = wide_row(j);
      const bool interior = last >= first + 2;
      for (std::size_t w = 0; w < wp; ++w) {
        or_possible[w] |= wide[2 * w];
        if (interior) or_certain[w] |= wide[2 * w];
      }
    }
    Word any = 0;
    for (std::size_t w = 0; w < wp; ++w) {
      const Word possible = acc[2 * w] & or_possible[w];
      acc[2 * w] = possible;
      acc[2 * w + 1] &= or_certain[w];
      any |= possible;
    }
    if (any == 0) {
      last_query_cost_ = 0;
      return;
    }
  }
  if (zero_certain) simd::zero_odd_words(acc, paired);

  const std::size_t lanes = verify_groups_ * kVerifyGroup;
  double* qlo = query_pad_.data();
  double* qhi = query_pad_.data() + lanes;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    qlo[lane] = lane < m_ ? box.range(lane).lo : -kInf;
    qhi[lane] = lane < m_ ? box.range(lane).hi : kInf;
  }
  const double* blob = verify_blob_.data();
  const std::size_t row_doubles = verify_groups_ * 2 * kVerifyGroup;
  last_query_cost_ = emit_candidates(out, [&](std::uint32_t slot) {
    const double* rec = blob + slot * row_doubles;
    for (std::size_t g = 0; g < verify_groups_; ++g) {
      if (!simd::intersects4(qlo + g * kVerifyGroup, qhi + g * kVerifyGroup,
                             rec + g * 2 * kVerifyGroup)) {
        return false;
      }
    }
    return true;
  });
}

void IntervalIndex::box_intersect(const Subscription& box,
                                  std::vector<SubscriptionId>& out) const {
  if (box.attribute_count() != m_) {
    throw std::invalid_argument("IntervalIndex::box_intersect: schema mismatch");
  }
  if (size_ == 0) {
    last_query_cost_ = 0;
    return;
  }
  if (config_.use_simd && simd::vectorized()) {
    bool has_nan = false;
    for (std::size_t j = 0; j < m_; ++j) {
      if (std::isnan(box.range(j).lo) || std::isnan(box.range(j).hi)) {
        has_nan = true;
        break;
      }
    }
    if (!has_nan) {
      box_intersect_simd(box, out);
      return;
    }
  }
  const std::uint64_t epoch = ++epoch_;
  std::uint64_t cost = 0;
  auto touch = [&](std::uint32_t slot) {
    if (epochs_[slot] != epoch) {
      epochs_[slot] = epoch;
      counts_[slot] = 0;
    }
  };

  // Two-phase counting over the sorted endpoints; see the header. Phase 1
  // rules out slots whose interval lies entirely below the probe; all
  // decrements precede every increment, so phase 2's running count is
  // monotone and crossing required_[slot] certifies that every selective
  // attribute intersects. Wide attributes are re-checked on emission.
  // Tombstoned slots may still be counted through their stale endpoints;
  // the liveness test at emission drops them.
  for (std::size_t j = 0; j < m_; ++j) {
    const Value qlo = box.range(j).lo;
    for (const Endpoint& e : highs_[j]) {
      if (!(e.value < qlo)) break;
      touch(e.slot);
      --counts_[e.slot];
    }
  }
  for (std::size_t j = 0; j < m_; ++j) {
    const Value qhi = box.range(j).hi;
    for (const Endpoint& e : lows_[j]) {
      if (e.value > qhi) break;
      touch(e.slot);
      if (static_cast<std::uint32_t>(++counts_[e.slot]) == required_[e.slot] &&
          ids_[e.slot] != core::kInvalidSubscriptionId) {
        ++cost;
        if (verify_box(e.slot, box, wide_attrs_[e.slot])) {
          out.push_back(ids_[e.slot]);
        }
      }
    }
  }

  // Delta tier: endpoints not merged yet, so these slots are checked
  // exactly, against every semantically constrained attribute (the
  // counting pass certified nothing for them).
  for (const std::uint32_t slot : delta_slots_) {
    ++cost;
    if (verify_box(slot, box, semantic_attrs_[slot])) {
      out.push_back(ids_[slot]);
    }
  }

  for (const std::uint32_t slot : unselective_slots_) {
    ++cost;
    if (verify_box(slot, box, wide_attrs_[slot])) out.push_back(ids_[slot]);
  }
  last_query_cost_ = cost;
}

std::vector<SubscriptionId> IntervalIndex::box_intersect(
    const Subscription& box) const {
  std::vector<SubscriptionId> out;
  box_intersect(box, out);
  return out;
}

}  // namespace psc::index
