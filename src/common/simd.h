// Portable SIMD layer for the host-side kernel hot loops.
//
// The simulated kernels spend their host time in three loop shapes: hash-map
// probing (one control byte per slot), dense-window occupancy scans (one byte
// per column), and gather-heavy sweeps over B rows. This header provides the
// small fixed-width primitives those loops build on — 16-wide control-byte
// group matches, 32-wide nonzero-byte scans, software prefetch — with
// AVX2/SSE2/NEON implementations and a scalar reference, selected by a
// runtime-dispatched `SimdBackend` value.
//
// Dispatch rules (docs/performance.md "SIMD backends"):
//   * `SpeckConfig::simd_backend` wins when it is not kAuto,
//   * else the `SPECK_SIMD` environment variable (scalar|sse|avx2|neon|auto),
//   * else the best backend the CPU supports (`detected_backend()`).
//
// Determinism contract: every primitive is a pure bit-level function with a
// scalar reference implementation, and every caller is written so that the
// backend only changes *how* a stop position or byte mask is computed, never
// *which* position or mask results. CSR bytes, simulated seconds and all
// PassStats counters are therefore bit-identical across backends — enforced
// by tests/test_simd.cpp under ASan/UBSan/TSan.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SPECK_SIMD_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SPECK_SIMD_NEON 1
#endif

namespace speck {

/// Backend selector. kAuto is a *request* (resolve via env/CPU detection);
/// the kernels only ever see resolved values (never kAuto).
enum class SimdBackend { kAuto, kScalar, kSse, kAvx2, kNeon };

namespace simd {

/// Control-byte group width shared by the group-probing hash maps.
inline constexpr std::size_t kGroupWidth = 16;

/// Byte-scan chunk width used by nonzero_mask32 (dense occupancy windows).
inline constexpr std::size_t kChunkWidth = 32;

/// True when the running CPU (and compiler target) can execute `backend`.
/// kAuto and kScalar are always available.
bool backend_available(SimdBackend backend);

/// Best available backend on this CPU: avx2 > sse > neon > scalar.
SimdBackend detected_backend();

/// Parses "auto" | "scalar" | "sse" | "avx2" | "neon" (case-insensitive).
std::optional<SimdBackend> parse_backend(std::string_view name);

/// Human-readable backend name ("auto", "scalar", "sse", "avx2", "neon").
const char* backend_name(SimdBackend backend);

/// Resolves a request to a concrete backend: a non-kAuto `choice` is used
/// verbatim (throws InvalidArgument when the CPU lacks it); kAuto consults
/// the SPECK_SIMD environment variable, then `detected_backend()`. An
/// unparsable or unavailable SPECK_SIMD value falls back to detection (with
/// a one-time stderr notice) so a stale environment never aborts a run.
SimdBackend resolve_backend(SimdBackend choice);

// ---------------------------------------------------------------------------
// Primitives. Each has a scalar reference; the dispatching wrapper takes the
// resolved backend as an argument so callers hoist the choice out of loops.
// ---------------------------------------------------------------------------

/// Tag-match and empty-match masks of one control group, derived from a
/// single 16-byte load (the probe loops need both on every group).
struct GroupMasks {
  std::uint32_t tag_mask;    ///< bit i set iff group[i] == tag
  std::uint32_t empty_mask;  ///< bit i set iff group[i] == empty
};

inline GroupMasks group_masks16_scalar(const std::uint8_t* group,
                                       std::uint8_t tag, std::uint8_t empty) {
  GroupMasks m{0, 0};
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    m.tag_mask |= static_cast<std::uint32_t>(group[i] == tag) << i;
    m.empty_mask |= static_cast<std::uint32_t>(group[i] == empty) << i;
  }
  return m;
}

/// Bit i of the result is set iff group[i] < 0x80 — i.e. the slot holds a
/// 7-bit tag (occupied). Empty (0x80) and sentinel (0xFF) control bytes both
/// carry the high bit, so one sign-bit mask separates occupied from free.
inline std::uint32_t occupied_mask16_scalar(const std::uint8_t* group) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    mask |= static_cast<std::uint32_t>(group[i] < 0x80) << i;
  }
  return mask;
}

/// Bit i of the result is set iff p[i] != 0 (32 lanes).
inline std::uint32_t nonzero_mask32_scalar(const std::uint8_t* p) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    mask |= static_cast<std::uint32_t>(p[i] != 0) << i;
  }
  return mask;
}

#if defined(SPECK_SIMD_X86)
// SSE2 is part of the x86-64 baseline, so these build without special flags.
inline GroupMasks group_masks16_sse(const std::uint8_t* group, std::uint8_t tag,
                                    std::uint8_t empty) {
  const __m128i g =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  const auto tag_mask = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(tag)))));
  const auto empty_mask = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(empty)))));
  return GroupMasks{tag_mask, empty_mask};
}

inline std::uint32_t occupied_mask16_sse(const std::uint8_t* group) {
  const __m128i g =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  // movemask collects the sign bits: set for empty/sentinel, clear for tags.
  return static_cast<std::uint32_t>(_mm_movemask_epi8(g)) ^ 0xFFFFu;
}

inline std::uint32_t nonzero_mask32_sse(const std::uint8_t* p) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  const auto zlo = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(lo, zero)));
  const auto zhi = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(hi, zero)));
  return ~(zlo | (zhi << 16));
}

// AVX2 variants carry a function-level target attribute so this header
// compiles without -mavx2; resolve_backend() guarantees they only run on
// CPUs that support them.
[[gnu::target("avx2")]] inline std::uint32_t nonzero_mask32_avx2(
    const std::uint8_t* p) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const auto zeros = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, _mm256_setzero_si256())));
  return ~zeros;
}
#endif  // SPECK_SIMD_X86

#if defined(SPECK_SIMD_NEON)
inline GroupMasks group_masks16_neon(const std::uint8_t* group,
                                     std::uint8_t tag, std::uint8_t empty) {
  const uint8x16_t g = vld1q_u8(group);
  // Narrow each byte lane to one bit: AND with per-lane bit weights, then
  // pairwise-add down to two bytes of mask.
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t tag_bits = vandq_u8(vceqq_u8(g, vdupq_n_u8(tag)), weights);
  const uint8x16_t empty_bits =
      vandq_u8(vceqq_u8(g, vdupq_n_u8(empty)), weights);
  const auto tag_mask =
      static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(tag_bits))) |
      (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(tag_bits))) << 8);
  const auto empty_mask =
      static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(empty_bits))) |
      (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(empty_bits))) << 8);
  return GroupMasks{tag_mask, empty_mask};
}

inline std::uint32_t occupied_mask16_neon(const std::uint8_t* group) {
  const uint8x16_t occ = vcltq_u8(vld1q_u8(group), vdupq_n_u8(0x80));
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t bits = vandq_u8(occ, weights);
  return static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(bits))) |
         (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(bits))) << 8);
}

inline std::uint32_t nonzero_mask32_neon(const std::uint8_t* p) {
  const uint8x16_t zero = vdupq_n_u8(0);
  const uint8x16_t nz_lo = vmvnq_u8(vceqq_u8(vld1q_u8(p), zero));
  const uint8x16_t nz_hi = vmvnq_u8(vceqq_u8(vld1q_u8(p + 16), zero));
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t blo = vandq_u8(nz_lo, weights);
  const uint8x16_t bhi = vandq_u8(nz_hi, weights);
  return static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(blo))) |
         (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(blo))) << 8) |
         (static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(bhi))) << 16) |
         (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(bhi))) << 24);
}
#endif  // SPECK_SIMD_NEON

/// Dispatching single-load tag+empty group match. `backend` must be resolved.
inline GroupMasks group_masks16(const std::uint8_t* group, std::uint8_t tag,
                                std::uint8_t empty, SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend != SimdBackend::kScalar)
    return group_masks16_sse(group, tag, empty);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar)
    return group_masks16_neon(group, tag, empty);
#else
  (void)backend;
#endif
  return group_masks16_scalar(group, tag, empty);
}

/// Dispatching 16-lane occupied-slot mask. `backend` must be resolved.
inline std::uint32_t occupied_mask16(const std::uint8_t* group,
                                     SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend != SimdBackend::kScalar) return occupied_mask16_sse(group);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) return occupied_mask16_neon(group);
#else
  (void)backend;
#endif
  return occupied_mask16_scalar(group);
}

/// Dispatching 32-lane nonzero-byte scan. `backend` must be resolved.
inline std::uint32_t nonzero_mask32(const std::uint8_t* p, SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend == SimdBackend::kAvx2) return nonzero_mask32_avx2(p);
  if (backend != SimdBackend::kScalar) return nonzero_mask32_sse(p);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) return nonzero_mask32_neon(p);
#else
  (void)backend;
#endif
  return nonzero_mask32_scalar(p);
}

// ---------------------------------------------------------------------------
// Integer prefix scans: CSR row-offset construction and counting-sort
// histogram offsets. 64-bit lanes (offset_t and std::size_t histograms are
// both 8 bytes); integer addition is associative, so every backend is
// bit-identical to the scalar reference by construction.
// ---------------------------------------------------------------------------

/// In-place inclusive prefix sum over 64-bit words; returns the total.
inline std::uint64_t inclusive_scan_u64_scalar(std::uint64_t* data,
                                               std::size_t n) {
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    running += data[i];
    data[i] = running;
  }
  return running;
}

/// In-place exclusive prefix sum over 64-bit words; returns the total.
inline std::uint64_t exclusive_scan_u64_scalar(std::uint64_t* data,
                                               std::size_t n) {
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = data[i];
    data[i] = running;
    running += v;
  }
  return running;
}

#if defined(SPECK_SIMD_X86)
inline std::uint64_t inclusive_scan_u64_sse(std::uint64_t* data,
                                            std::size_t n) {
  __m128i carry = _mm_setzero_si128();  // running total in both lanes
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    v = _mm_add_epi64(v, _mm_slli_si128(v, 8));  // [v0, v0+v1]
    v = _mm_add_epi64(v, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(data + i), v);
    carry = _mm_shuffle_epi32(v, _MM_SHUFFLE(3, 2, 3, 2));  // high lane -> both
  }
  auto running = static_cast<std::uint64_t>(_mm_cvtsi128_si64(carry));
  for (; i < n; ++i) {
    running += data[i];
    data[i] = running;
  }
  return running;
}

inline std::uint64_t exclusive_scan_u64_sse(std::uint64_t* data,
                                            std::size_t n) {
  __m128i carry = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i incl = _mm_add_epi64(v, _mm_slli_si128(v, 8));  // [v0, v0+v1]
    const __m128i excl =
        _mm_add_epi64(_mm_slli_si128(incl, 8), carry);  // [run, run+v0]
    _mm_storeu_si128(reinterpret_cast<__m128i*>(data + i), excl);
    const __m128i total = _mm_add_epi64(incl, carry);
    carry = _mm_shuffle_epi32(total, _MM_SHUFFLE(3, 2, 3, 2));
  }
  auto running = static_cast<std::uint64_t>(_mm_cvtsi128_si64(carry));
  for (; i < n; ++i) {
    const std::uint64_t v = data[i];
    data[i] = running;
    running += v;
  }
  return running;
}

[[gnu::target("avx2")]] inline std::uint64_t inclusive_scan_u64_avx2(
    std::uint64_t* data, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i carry = zero;  // running total in all four lanes
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    // Within-128-bit-lane scan: [v0, v0+v1, v2, v2+v3] ...
    const __m256i step = _mm256_add_epi64(v, _mm256_slli_si256(v, 8));
    // ... then carry v0+v1 into the upper half for the full in-vector scan.
    const __m256i upper = _mm256_blend_epi32(
        zero, _mm256_permute4x64_epi64(step, _MM_SHUFFLE(1, 1, 1, 1)), 0xF0);
    const __m256i incl =
        _mm256_add_epi64(_mm256_add_epi64(step, upper), carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i), incl);
    carry = _mm256_permute4x64_epi64(incl, _MM_SHUFFLE(3, 3, 3, 3));
  }
  auto running =
      static_cast<std::uint64_t>(_mm256_extract_epi64(carry, 0));
  for (; i < n; ++i) {
    running += data[i];
    data[i] = running;
  }
  return running;
}

[[gnu::target("avx2")]] inline std::uint64_t exclusive_scan_u64_avx2(
    std::uint64_t* data, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i carry = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i step = _mm256_add_epi64(v, _mm256_slli_si256(v, 8));
    const __m256i upper = _mm256_blend_epi32(
        zero, _mm256_permute4x64_epi64(step, _MM_SHUFFLE(1, 1, 1, 1)), 0xF0);
    const __m256i incl = _mm256_add_epi64(step, upper);
    // Shift one lane up (crossing the 128-bit boundary), zero lane 0.
    const __m256i shifted = _mm256_blend_epi32(
        zero, _mm256_permute4x64_epi64(incl, _MM_SHUFFLE(2, 1, 0, 0)), 0xFC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i),
                        _mm256_add_epi64(shifted, carry));
    carry = _mm256_permute4x64_epi64(_mm256_add_epi64(incl, carry),
                                     _MM_SHUFFLE(3, 3, 3, 3));
  }
  auto running =
      static_cast<std::uint64_t>(_mm256_extract_epi64(carry, 0));
  for (; i < n; ++i) {
    const std::uint64_t v = data[i];
    data[i] = running;
    running += v;
  }
  return running;
}
#endif  // SPECK_SIMD_X86

#if defined(SPECK_SIMD_NEON)
inline std::uint64_t inclusive_scan_u64_neon(std::uint64_t* data,
                                             std::size_t n) {
  const uint64x2_t zero = vdupq_n_u64(0);
  uint64x2_t carry = zero;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t v = vld1q_u64(data + i);
    v = vaddq_u64(v, vextq_u64(zero, v, 1));  // [v0, v0+v1]
    v = vaddq_u64(v, carry);
    vst1q_u64(data + i, v);
    carry = vdupq_laneq_u64(v, 1);
  }
  std::uint64_t running = vgetq_lane_u64(carry, 0);
  for (; i < n; ++i) {
    running += data[i];
    data[i] = running;
  }
  return running;
}

inline std::uint64_t exclusive_scan_u64_neon(std::uint64_t* data,
                                             std::size_t n) {
  const uint64x2_t zero = vdupq_n_u64(0);
  uint64x2_t carry = zero;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(data + i);
    const uint64x2_t incl = vaddq_u64(v, vextq_u64(zero, v, 1));
    vst1q_u64(data + i, vaddq_u64(vextq_u64(zero, incl, 1), carry));
    carry = vdupq_laneq_u64(vaddq_u64(incl, carry), 1);
  }
  std::uint64_t running = vgetq_lane_u64(carry, 0);
  for (; i < n; ++i) {
    const std::uint64_t v = data[i];
    data[i] = running;
    running += v;
  }
  return running;
}
#endif  // SPECK_SIMD_NEON

/// Dispatching in-place inclusive 64-bit prefix sum; returns the total.
/// `backend` must be resolved.
inline std::uint64_t inclusive_scan_u64(std::uint64_t* data, std::size_t n,
                                        SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend == SimdBackend::kAvx2) return inclusive_scan_u64_avx2(data, n);
  if (backend != SimdBackend::kScalar) return inclusive_scan_u64_sse(data, n);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) return inclusive_scan_u64_neon(data, n);
#else
  (void)backend;
#endif
  return inclusive_scan_u64_scalar(data, n);
}

/// Dispatching in-place exclusive 64-bit prefix sum; returns the total.
/// `backend` must be resolved.
inline std::uint64_t exclusive_scan_u64(std::uint64_t* data, std::size_t n,
                                        SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend == SimdBackend::kAvx2) return exclusive_scan_u64_avx2(data, n);
  if (backend != SimdBackend::kScalar) return exclusive_scan_u64_sse(data, n);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) return exclusive_scan_u64_neon(data, n);
#else
  (void)backend;
#endif
  return exclusive_scan_u64_scalar(data, n);
}

// ---------------------------------------------------------------------------
// Widening copy: int32 -> int64, the CSR row-offset staging step (per-row
// nnz counts are index_t, offsets are offset_t). Sign extension is exact,
// so every backend is bit-identical to the scalar reference.
// ---------------------------------------------------------------------------

/// dst[i] = (int64) src[i] for i in [0, n); dst must not alias src.
inline void widen_i32_to_i64_scalar(const std::int32_t* src, std::int64_t* dst,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::int64_t>(src[i]);
}

#if defined(SPECK_SIMD_X86)
inline void widen_i32_to_i64_sse(const std::int32_t* src, std::int64_t* dst,
                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // SSE2 sign extension: replicate the sign bit, then interleave.
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i sign = _mm_srai_epi32(v, 31);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_unpacklo_epi32(v, sign));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 2),
                     _mm_unpackhi_epi32(v, sign));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::int64_t>(src[i]);
}

[[gnu::target("avx2")]] inline void widen_i32_to_i64_avx2(
    const std::int32_t* src, std::int64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_cvtepi32_epi64(v));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::int64_t>(src[i]);
}
#endif  // SPECK_SIMD_X86

#if defined(SPECK_SIMD_NEON)
inline void widen_i32_to_i64_neon(const std::int32_t* src, std::int64_t* dst,
                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int32x4_t v = vld1q_s32(src + i);
    vst1q_s64(dst + i, vmovl_s32(vget_low_s32(v)));
    vst1q_s64(dst + i + 2, vmovl_s32(vget_high_s32(v)));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::int64_t>(src[i]);
}
#endif  // SPECK_SIMD_NEON

/// Dispatching widening copy int32 -> int64. `backend` must be resolved.
inline void widen_i32_to_i64(const std::int32_t* src, std::int64_t* dst,
                             std::size_t n, SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend == SimdBackend::kAvx2) return widen_i32_to_i64_avx2(src, dst, n);
  if (backend != SimdBackend::kScalar) return widen_i32_to_i64_sse(src, dst, n);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) return widen_i32_to_i64_neon(src, dst, n);
#else
  (void)backend;
#endif
  return widen_i32_to_i64_scalar(src, dst, n);
}

// ---------------------------------------------------------------------------
// Masked dense-window gather: the extraction step of the masked SpGEMM dense
// path. A dense accumulation window covers columns [base, base + window); for
// each mask column cols[i] inside that range the primitive reads the window
// cell idx = cols[i] - base and emits
//   out_touched[i] = occupied[idx] != 0
//   out_vals[i]    = touched ? window_vals[idx] : 0.0
// Both outputs are pure element copies/zeroes — no arithmetic — so every
// backend is bit-identical to the scalar reference by construction. The AVX2
// variant gathers occupancy bytes four at a time with a scale-1 dword gather,
// which reads up to 3 bytes past occupied[window - 1]; callers must pad the
// occupancy buffer accordingly (kMaskedGatherPad bytes suffice).
// ---------------------------------------------------------------------------

/// Extra readable bytes required past the end of the occupancy window.
inline constexpr std::size_t kMaskedGatherPad = 3;

inline void masked_window_gather_scalar(const std::int32_t* cols, std::size_t n,
                                        std::int32_t base,
                                        const double* window_vals,
                                        const std::uint8_t* occupied,
                                        double* out_vals,
                                        std::uint8_t* out_touched) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(cols[i] - base);
    const bool occ = occupied[idx] != 0;
    out_touched[i] = occ ? 1 : 0;
    out_vals[i] = occ ? window_vals[idx] : 0.0;
  }
}

#if defined(SPECK_SIMD_X86)
inline void masked_window_gather_sse(const std::int32_t* cols, std::size_t n,
                                     std::int32_t base,
                                     const double* window_vals,
                                     const std::uint8_t* occupied,
                                     double* out_vals,
                                     std::uint8_t* out_touched) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // SSE2 has no gather instruction; two scalar element loads feed one
    // vector mask-and-store per pair.
    const auto i0 = static_cast<std::size_t>(cols[i] - base);
    const auto i1 = static_cast<std::size_t>(cols[i + 1] - base);
    const bool o0 = occupied[i0] != 0;
    const bool o1 = occupied[i1] != 0;
    const __m128d v = _mm_set_pd(window_vals[i1], window_vals[i0]);
    const __m128i keep = _mm_set_epi64x(o1 ? -1 : 0, o0 ? -1 : 0);
    _mm_storeu_pd(out_vals + i, _mm_and_pd(v, _mm_castsi128_pd(keep)));
    out_touched[i] = o0 ? 1 : 0;
    out_touched[i + 1] = o1 ? 1 : 0;
  }
  for (; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(cols[i] - base);
    const bool occ = occupied[idx] != 0;
    out_touched[i] = occ ? 1 : 0;
    out_vals[i] = occ ? window_vals[idx] : 0.0;
  }
}

[[gnu::target("avx2")]] inline void masked_window_gather_avx2(
    const std::int32_t* cols, std::size_t n, std::int32_t base,
    const double* window_vals, const std::uint8_t* occupied, double* out_vals,
    std::uint8_t* out_touched) {
  const __m128i vbase = _mm_set1_epi32(base);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + i)), vbase);
    const __m256d v = _mm256_i32gather_pd(window_vals, idx, 8);
    // Scale-1 dword gather of the occupancy bytes (low byte per lane); the
    // caller's kMaskedGatherPad padding keeps the tail lanes in bounds.
    const __m128i occ4 = _mm_and_si128(
        _mm_i32gather_epi32(reinterpret_cast<const int*>(occupied), idx, 1),
        _mm_set1_epi32(0xFF));
    const __m128i occ_mask = _mm_cmpgt_epi32(occ4, _mm_setzero_si128());
    const __m256d keep = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(occ_mask));
    _mm256_storeu_pd(out_vals + i, _mm256_and_pd(v, keep));
    const int bits = _mm_movemask_ps(_mm_castsi128_ps(occ_mask));
    out_touched[i] = static_cast<std::uint8_t>(bits & 1);
    out_touched[i + 1] = static_cast<std::uint8_t>((bits >> 1) & 1);
    out_touched[i + 2] = static_cast<std::uint8_t>((bits >> 2) & 1);
    out_touched[i + 3] = static_cast<std::uint8_t>((bits >> 3) & 1);
  }
  for (; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(cols[i] - base);
    const bool occ = occupied[idx] != 0;
    out_touched[i] = occ ? 1 : 0;
    out_vals[i] = occ ? window_vals[idx] : 0.0;
  }
}
#endif  // SPECK_SIMD_X86

#if defined(SPECK_SIMD_NEON)
inline void masked_window_gather_neon(const std::int32_t* cols, std::size_t n,
                                      std::int32_t base,
                                      const double* window_vals,
                                      const std::uint8_t* occupied,
                                      double* out_vals,
                                      std::uint8_t* out_touched) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // NEON has no gather either; lane-wise loads feed one masked store.
    const auto i0 = static_cast<std::size_t>(cols[i] - base);
    const auto i1 = static_cast<std::size_t>(cols[i + 1] - base);
    const bool o0 = occupied[i0] != 0;
    const bool o1 = occupied[i1] != 0;
    const float64x2_t v =
        vsetq_lane_f64(window_vals[i1], vdupq_n_f64(window_vals[i0]), 1);
    const uint64x2_t keep = vsetq_lane_u64(
        o1 ? ~0ull : 0, vdupq_n_u64(o0 ? ~0ull : 0), 1);
    vst1q_f64(out_vals + i, vreinterpretq_f64_u64(vandq_u64(
                                vreinterpretq_u64_f64(v), keep)));
    out_touched[i] = o0 ? 1 : 0;
    out_touched[i + 1] = o1 ? 1 : 0;
  }
  for (; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(cols[i] - base);
    const bool occ = occupied[idx] != 0;
    out_touched[i] = occ ? 1 : 0;
    out_vals[i] = occ ? window_vals[idx] : 0.0;
  }
}
#endif  // SPECK_SIMD_NEON

/// Dispatching masked dense-window gather. `backend` must be resolved. The
/// occupancy buffer needs kMaskedGatherPad readable bytes of tail padding.
inline void masked_window_gather(const std::int32_t* cols, std::size_t n,
                                 std::int32_t base, const double* window_vals,
                                 const std::uint8_t* occupied, double* out_vals,
                                 std::uint8_t* out_touched,
                                 SimdBackend backend) {
#if defined(SPECK_SIMD_X86)
  if (backend == SimdBackend::kAvx2) {
    return masked_window_gather_avx2(cols, n, base, window_vals, occupied,
                                     out_vals, out_touched);
  }
  if (backend != SimdBackend::kScalar) {
    return masked_window_gather_sse(cols, n, base, window_vals, occupied,
                                    out_vals, out_touched);
  }
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) {
    return masked_window_gather_neon(cols, n, base, window_vals, occupied,
                                     out_vals, out_touched);
  }
#else
  (void)backend;
#endif
  return masked_window_gather_scalar(cols, n, base, window_vals, occupied,
                                     out_vals, out_touched);
}

/// Software prefetch into the read cache hierarchy. Callers gate this on
/// `backend != kScalar` — prefetch never changes results, but keeping the
/// scalar path prefetch-free keeps it the plain reference implementation.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

/// Index of the lowest set bit; `mask` must be nonzero.
inline unsigned lowest_bit(std::uint32_t mask) {
  return static_cast<unsigned>(std::countr_zero(mask));
}

}  // namespace simd
}  // namespace speck
