// Portable SIMD layer for the host-side kernel hot loops.
//
// The simulated kernels spend their host time in two loop shapes that a
// vector compare shortens: hash-map probing (one control byte per slot) and
// dense-window occupancy scans (one byte per column). This header provides
// the small fixed-width primitives those loops build on — 16-wide
// control-byte group matches, 32-wide nonzero-byte scans, software prefetch —
// with one 16-byte vector implementation per ISA (SSE2 on x86-64, NEON on
// AArch64) and a scalar reference, selected by a runtime-dispatched
// `SimdBackend` value. Only primitives with a measured host-time win live
// here (docs/performance.md "SIMD backends").
//
// Dispatch rules (docs/performance.md "SIMD backends"):
//   * `SpeckConfig::simd_backend` wins when it is not kAuto,
//   * else the `SPECK_SIMD` environment variable (scalar|sse|neon|auto),
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
#include <optional>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#define SPECK_SIMD_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SPECK_SIMD_NEON 1
#endif

namespace speck {

/// Backend selector. kAuto is a *request* (resolve via env/CPU detection);
/// the kernels only ever see resolved values (never kAuto). The numeric
/// values stay fixed (3 is retired), so a value printed in a log or a
/// parameterized test name keeps its meaning.
enum class SimdBackend { kAuto, kScalar, kSse, kNeon = 4 };

namespace simd {

/// Control-byte group width shared by the group-probing hash maps.
inline constexpr std::size_t kGroupWidth = 16;

/// Byte-scan chunk width used by nonzero_mask32 (dense occupancy windows).
inline constexpr std::size_t kChunkWidth = 32;

/// True when the running CPU (and compiler target) can execute `backend`.
/// kAuto and kScalar are always available.
bool backend_available(SimdBackend backend);

/// Best available backend on this CPU: sse > neon > scalar.
SimdBackend detected_backend();

/// Parses "auto" | "scalar" | "sse" | "neon" (case-insensitive).
std::optional<SimdBackend> parse_backend(std::string_view name);

/// Human-readable backend name ("auto", "scalar", "sse", "neon").
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
  if (backend != SimdBackend::kScalar) return nonzero_mask32_sse(p);
#elif defined(SPECK_SIMD_NEON)
  if (backend != SimdBackend::kScalar) return nonzero_mask32_neon(p);
#else
  (void)backend;
#endif
  return nonzero_mask32_scalar(p);
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
