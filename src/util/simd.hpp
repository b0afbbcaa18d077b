// Portable SIMD kernels for the hot matching loops (util layer, no
// dependencies above it).
//
// Backend selection is COMPILE-TIME: AVX2 when the translation unit is
// built with -mavx2 (CMake adds it on x86-64 unless -DPSC_NO_SIMD=ON),
// NEON on AArch64, scalar otherwise. `kBackend` / `backend_name()` expose
// the choice at runtime so benches can record which kernel produced a
// number, and the scalar implementations are ALWAYS compiled (they are the
// `kScalar` bodies) so a SIMD build can still run the ablation path via
// IndexConfig::use_simd = false. Decision-for-decision identity between
// backends is a hard contract, property-tested by tests/simd_kernel_test:
//
//   * the bitset kernels are pure word arithmetic — identical on every
//     backend by construction;
//   * the double-compare kernels use ORDERED-QUIET predicates
//     (_CMP_GE_OQ / _CMP_LE_OQ), which match the scalar `>=` / `<=`
//     semantics bit-for-bit, including every NaN case (NaN compares
//     false).
//
// All word-array kernels require 32-byte-aligned pointers and a word count
// that is a multiple of kBlockWords; AlignedVector + padded_words()
// provide both. The double kernels require 32-byte-aligned records.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if !defined(PSC_NO_SIMD) && defined(__AVX2__)
#define PSC_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(PSC_NO_SIMD) && defined(__ARM_NEON)
#define PSC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace psc::simd {

enum class Backend { kScalar, kNEON, kAVX2 };

#if defined(PSC_SIMD_AVX2)
inline constexpr Backend kBackend = Backend::kAVX2;
#elif defined(PSC_SIMD_NEON)
inline constexpr Backend kBackend = Backend::kNEON;
#else
inline constexpr Backend kBackend = Backend::kScalar;
#endif

[[nodiscard]] constexpr const char* backend_name() noexcept {
  switch (kBackend) {
    case Backend::kAVX2: return "avx2";
    case Backend::kNEON: return "neon";
    case Backend::kScalar: return "scalar";
  }
  return "scalar";
}

/// True when a vector backend was compiled in (the runtime-dispatch query:
/// callers pair it with their own use_simd knob to pick a path).
[[nodiscard]] constexpr bool vectorized() noexcept {
  return kBackend != Backend::kScalar;
}

using Word = std::uint64_t;
inline constexpr std::size_t kBlockWords = 4;   ///< 256-bit block
inline constexpr std::size_t kAlignment = 32;

/// Rounds a word count up to a whole number of blocks.
[[nodiscard]] constexpr std::size_t padded_words(std::size_t words) noexcept {
  return (words + kBlockWords - 1) & ~(kBlockWords - 1);
}

/// Minimal 32-byte-aligned allocator so std::vector storage can feed the
/// aligned-load kernels directly.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept { return true; }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

inline void prefetch(const void* p) noexcept {
#if defined(PSC_SIMD_AVX2)
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#else
  __builtin_prefetch(p);
#endif
}

/// acc[w] &= row[w] over `words` (block multiple); returns true iff any bit
/// survives — the fused sweep + early-exit test of IntervalIndex::stab.
[[nodiscard]] inline bool and_into(Word* acc, const Word* row,
                                   std::size_t words) noexcept {
#if defined(PSC_SIMD_AVX2)
  __m256i any = _mm256_setzero_si256();
  for (std::size_t w = 0; w < words; w += kBlockWords) {
    const __m256i a =
        _mm256_and_si256(_mm256_load_si256(reinterpret_cast<const __m256i*>(acc + w)),
                         _mm256_load_si256(reinterpret_cast<const __m256i*>(row + w)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + w), a);
    any = _mm256_or_si256(any, a);
  }
  return _mm256_testz_si256(any, any) == 0;
#elif defined(PSC_SIMD_NEON)
  uint64x2_t any = vdupq_n_u64(0);
  for (std::size_t w = 0; w < words; w += 2) {
    const uint64x2_t a = vandq_u64(vld1q_u64(acc + w), vld1q_u64(row + w));
    vst1q_u64(acc + w, a);
    any = vorrq_u64(any, a);
  }
  return (vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1)) != 0;
#else
  Word any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    acc[w] &= row[w];
    any |= acc[w];
  }
  return any != 0;
#endif
}

/// acc[w] &= row[w] | extra[w] over `words` (block multiple); returns true
/// iff any bit survives — the stab sweep over an attribute some live slots
/// are wide on (`extra` is IntervalIndex's wide row).
[[nodiscard]] inline bool and_or_into(Word* acc, const Word* row,
                                      const Word* extra,
                                      std::size_t words) noexcept {
#if defined(PSC_SIMD_AVX2)
  __m256i any = _mm256_setzero_si256();
  for (std::size_t w = 0; w < words; w += kBlockWords) {
    const __m256i a = _mm256_and_si256(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(acc + w)),
        _mm256_or_si256(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(row + w)),
            _mm256_load_si256(reinterpret_cast<const __m256i*>(extra + w))));
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + w), a);
    any = _mm256_or_si256(any, a);
  }
  return _mm256_testz_si256(any, any) == 0;
#elif defined(PSC_SIMD_NEON)
  uint64x2_t any = vdupq_n_u64(0);
  for (std::size_t w = 0; w < words; w += 2) {
    const uint64x2_t a = vandq_u64(
        vld1q_u64(acc + w), vorrq_u64(vld1q_u64(row + w), vld1q_u64(extra + w)));
    vst1q_u64(acc + w, a);
    any = vorrq_u64(any, a);
  }
  return (vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1)) != 0;
#else
  Word any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    acc[w] &= row[w] | extra[w];
    any |= acc[w];
  }
  return any != 0;
#endif
}

/// Paired-lane variant for an UNTRUSTED attribute (see the IntervalIndex
/// certainty-lane contract): even (possible) words AND normally, odd
/// (certain) words are forced to zero. Returns true iff any possible bit
/// survives.
[[nodiscard]] inline bool and_into_even(Word* acc, const Word* row,
                                        std::size_t words) noexcept {
  Word any = 0;
  for (std::size_t w = 0; w < words; w += 2) {
    acc[w] &= row[w];
    acc[w + 1] = 0;
    any |= acc[w];
  }
  return any != 0;
}

/// Zeroes the odd (certainty) words of a paired accumulator.
inline void zero_odd_words(Word* acc, std::size_t words) noexcept {
  for (std::size_t w = 1; w < words; w += 2) acc[w] = 0;
}

/// acc[w] |= row[w] over `words` (block multiple).
inline void or_into(Word* acc, const Word* row, std::size_t words) noexcept {
#if defined(PSC_SIMD_AVX2)
  for (std::size_t w = 0; w < words; w += kBlockWords) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(acc + w),
        _mm256_or_si256(_mm256_load_si256(reinterpret_cast<const __m256i*>(acc + w)),
                        _mm256_load_si256(reinterpret_cast<const __m256i*>(row + w))));
  }
#elif defined(PSC_SIMD_NEON)
  for (std::size_t w = 0; w < words; w += 2) {
    vst1q_u64(acc + w, vorrq_u64(vld1q_u64(acc + w), vld1q_u64(row + w)));
  }
#else
  for (std::size_t w = 0; w < words; ++w) acc[w] |= row[w];
#endif
}

/// acc[w] &= ~row[w] over `words` (block multiple).
inline void andnot_into(Word* acc, const Word* row, std::size_t words) noexcept {
#if defined(PSC_SIMD_AVX2)
  for (std::size_t w = 0; w < words; w += kBlockWords) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(acc + w),
        _mm256_andnot_si256(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(row + w)),
            _mm256_load_si256(reinterpret_cast<const __m256i*>(acc + w))));
  }
#elif defined(PSC_SIMD_NEON)
  for (std::size_t w = 0; w < words; w += 2) {
    vst1q_u64(acc + w, vbicq_u64(vld1q_u64(acc + w), vld1q_u64(row + w)));
  }
#else
  for (std::size_t w = 0; w < words; ++w) acc[w] &= ~row[w];
#endif
}

/// True iff every word is zero (block multiple).
[[nodiscard]] inline bool testz(const Word* p, std::size_t words) noexcept {
#if defined(PSC_SIMD_AVX2)
  __m256i any = _mm256_setzero_si256();
  for (std::size_t w = 0; w < words; w += kBlockWords) {
    any = _mm256_or_si256(
        any, _mm256_load_si256(reinterpret_cast<const __m256i*>(p + w)));
  }
  return _mm256_testz_si256(any, any) != 0;
#else
  Word any = 0;
  for (std::size_t w = 0; w < words; ++w) any |= p[w];
  return any == 0;
#endif
}

/// Set-bit count over `words`.
[[nodiscard]] inline std::uint64_t popcount(const Word* p,
                                            std::size_t words) noexcept {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(p[w]));
  }
  return total;
}

/// One 64-byte verify record: four interval lows then four highs. Padding
/// lanes carry lo = -inf / hi = +inf so they pass every real value.
/// contains4: point[i] in [rec[i], rec[i+4]] for all four lanes.
/// Ordered-quiet compares — any NaN operand fails the lane, exactly like
/// the scalar `>=` / `<=` the ablation path uses.
[[nodiscard]] inline bool contains4(const double* point4,
                                    const double* rec8) noexcept {
#if defined(PSC_SIMD_AVX2)
  const __m256d p = _mm256_load_pd(point4);
  const __m256d ge = _mm256_cmp_pd(p, _mm256_load_pd(rec8), _CMP_GE_OQ);
  const __m256d le = _mm256_cmp_pd(p, _mm256_load_pd(rec8 + 4), _CMP_LE_OQ);
  return _mm256_movemask_pd(_mm256_and_pd(ge, le)) == 0xf;
#elif defined(PSC_SIMD_NEON)
  const float64x2_t p0 = vld1q_f64(point4), p1 = vld1q_f64(point4 + 2);
  const uint64x2_t ok0 = vandq_u64(vcgeq_f64(p0, vld1q_f64(rec8)),
                                   vcleq_f64(p0, vld1q_f64(rec8 + 4)));
  const uint64x2_t ok1 = vandq_u64(vcgeq_f64(p1, vld1q_f64(rec8 + 2)),
                                   vcleq_f64(p1, vld1q_f64(rec8 + 6)));
  const uint64x2_t ok = vandq_u64(ok0, ok1);
  return (vgetq_lane_u64(ok, 0) & vgetq_lane_u64(ok, 1)) != 0;
#else
  for (int i = 0; i < 4; ++i) {
    if (!(point4[i] >= rec8[i] && point4[i] <= rec8[i + 4])) return false;
  }
  return true;
#endif
}

/// intersects4: [qlo[i], qhi[i]] overlaps [rec[i], rec[i+4]] for all four
/// lanes (closed intervals: qhi >= lo AND qlo <= hi).
[[nodiscard]] inline bool intersects4(const double* qlo4, const double* qhi4,
                                      const double* rec8) noexcept {
#if defined(PSC_SIMD_AVX2)
  const __m256d ge = _mm256_cmp_pd(_mm256_load_pd(qhi4),
                                   _mm256_load_pd(rec8), _CMP_GE_OQ);
  const __m256d le = _mm256_cmp_pd(_mm256_load_pd(qlo4),
                                   _mm256_load_pd(rec8 + 4), _CMP_LE_OQ);
  return _mm256_movemask_pd(_mm256_and_pd(ge, le)) == 0xf;
#elif defined(PSC_SIMD_NEON)
  const uint64x2_t ok0 =
      vandq_u64(vcgeq_f64(vld1q_f64(qhi4), vld1q_f64(rec8)),
                vcleq_f64(vld1q_f64(qlo4), vld1q_f64(rec8 + 4)));
  const uint64x2_t ok1 =
      vandq_u64(vcgeq_f64(vld1q_f64(qhi4 + 2), vld1q_f64(rec8 + 2)),
                vcleq_f64(vld1q_f64(qlo4 + 2), vld1q_f64(rec8 + 6)));
  const uint64x2_t ok = vandq_u64(ok0, ok1);
  return (vgetq_lane_u64(ok, 0) & vgetq_lane_u64(ok, 1)) != 0;
#else
  for (int i = 0; i < 4; ++i) {
    if (!(qhi4[i] >= rec8[i] && qlo4[i] <= rec8[i + 4])) return false;
  }
  return true;
#endif
}

}  // namespace psc::simd
