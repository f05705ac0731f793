#include "speck/plan.h"

#include <bit>
#include <cstddef>
#include <cstring>

#include "common/prng.h"
#include "matrix/matrix_stats.h"

namespace speck {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ v;
  return splitmix64(s);
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t planning_config_hash(const SpeckConfig& cfg) {
  std::uint64_t h = 0x5eC4'0Bad'F00dULL;
  const SpeckThresholds& t = cfg.thresholds;
  for (const LoadBalanceThresholds* lb :
       {&t.symbolic, &t.symbolic_large, &t.numeric, &t.numeric_large}) {
    h = mix(h, lb->ratio);
    h = mix(h, static_cast<std::uint64_t>(lb->min_rows));
  }
  h = mix(h, static_cast<std::uint64_t>(t.symbolic_large_kernel_count));
  h = mix(h, static_cast<std::uint64_t>(t.numeric_large_kernel_count));

  const SpeckFeatures& f = cfg.features;
  const std::uint64_t feature_bits =
      (f.dense_accumulation ? 1ULL : 0ULL) | (f.direct_rows ? 2ULL : 0ULL) |
      (f.dynamic_group_size ? 4ULL : 0ULL) | (f.block_merge ? 8ULL : 0ULL) |
      (static_cast<std::uint64_t>(f.global_lb_symbolic) << 4) |
      (static_cast<std::uint64_t>(f.global_lb_numeric) << 8);
  h = mix(h, feature_bits);
  h = mix(h, static_cast<std::uint64_t>(f.fixed_group_size));

  h = mix(h, cfg.max_numeric_fill);
  h = mix(h, cfg.symbolic_dense_factor);
  h = mix(h, cfg.dense_density_threshold);
  h = mix(h, static_cast<std::uint64_t>(cfg.max_rows_per_block));

  // The *resolved* planning mode (never kAuto, so an SPECK_PLANNING change
  // between runs changes the fingerprint): estimated and exact plans derive
  // different binning / kernel choices from the same structure, so the cache
  // must never serve one for the other. The estimator knobs only matter in
  // estimated mode but are hashed unconditionally to keep the hash a pure
  // function of the config.
  h = mix(h, static_cast<std::uint64_t>(resolve_planning(cfg.planning)));
  h = mix(h, static_cast<std::uint64_t>(cfg.estimator_samples));
  h = mix(h, cfg.estimator_safety_margin);
  h = mix(h, cfg.estimator_seed);

  // Execution-shape knobs stay out of the hash on purpose, exactly like
  // host_threads: partitions / partition_steal only move work between teams
  // and never change a single output byte or PassStats counter (the
  // two-level executor's bit-identity invariant), so a plan built at any
  // partition count replays correctly at every other.

  // Only the pipeline-affecting fault fields enter the hash: the serving
  // faults (plan_fail_mod, plan_delay_ms, admission_bytes_scale,
  // evict_every) never change what a plan computes, so hashing them would
  // only fragment the cache.
  const FaultSpec& fs = cfg.faults;
  h = mix(h, fs.estimate_scale);
  h = mix(h, fs.estimate_jitter);
  h = mix(h, fs.seed);
  h = mix(h, static_cast<std::uint64_t>(fs.hash_overflow_after));
  h = mix(h, fs.scratchpad_scale);
  h = mix(h, static_cast<std::uint64_t>(fs.memory_budget_bytes));
  h = mix(h, fs.estimator_scale);
  return h;
}

namespace {

/// wyhash-style multiply-mix: the 128-bit product of `a` and `b`, folded to
/// 64 bits.
std::uint64_t mum(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Per-lane secrets. Bit 63 is set in each and clear in every word of
/// non-negative indices or offsets, so `word ^ secret` never zeroes a
/// product.
constexpr std::uint64_t kLaneSecret[4] = {
    0xA076'1D64'78BD'642FULL, 0xE703'7ED1'A0B4'28DBULL,
    0x8EBC'6AF0'9C88'C6E3ULL, 0x9899'2F4B'DAB7'98B7ULL};

/// Four independent lanes over `data`'s bytes, each folding 16 bytes per
/// step into its state through one 64x64->128-bit multiply; a 64-byte step
/// feeds all four. The tail runs whole 16-byte steps on lanes 0..2 and a
/// zero-padded last step; the byte length is mixed in, so padding never
/// aliases real zeros. A pure function of the byte sequence.
template <typename T>
std::uint64_t hash_array_lanes(std::uint64_t h, std::span<const T> data) {
  const std::span<const std::byte> bytes = std::as_bytes(data);
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t lane[4] = {h ^ 0x9E37'79B9'7F4A'7C15ULL,
                           h ^ 0xBF58'476D'1CE4'E5B9ULL,
                           h ^ 0x94D0'49BB'1331'11EBULL,
                           h ^ 0xD6E8'FEB8'6659'FD93ULL};
  const auto step = [&](int l, const std::byte* q) {
    lane[l] = mum(load64(q) ^ kLaneSecret[l], load64(q + 8) ^ lane[l]);
  };
  for (; n >= 64; n -= 64, p += 64) {
    // A plan-cache hit hashes operands that other plans' replays have
    // evicted; prefetching 2 KiB ahead keeps enough reads in flight.
    __builtin_prefetch(p + 2048);
    for (int l = 0; l < 4; ++l) step(l, p + 16 * l);
  }
  int l = 0;
  for (; n >= 16; n -= 16, p += 16) step(l++, p);
  if (n > 0) {
    std::byte last[16] = {};
    std::memcpy(last, p, n);
    step(l, last);
  }
  h = mix(h, static_cast<std::uint64_t>(bytes.size()));
  for (const std::uint64_t v : lane) h = mix(h, v);
  return h;
}

}  // namespace

std::uint64_t csr_pattern_hash(const Csr& m) {
  std::uint64_t h = 0x9E37'79B9'7F4A'7C15ULL;
  h = mix(h, static_cast<std::uint64_t>(m.rows()));
  h = mix(h, static_cast<std::uint64_t>(m.cols()));
  h = hash_array_lanes(h, m.row_offsets());
  h = hash_array_lanes(h, m.col_indices());
  return h;
}

PlanFingerprint plan_fingerprint(const Csr& a, const Csr& b,
                                 const SpeckConfig& cfg,
                                 bool with_pattern_hashes) {
  PlanFingerprint fp;
  fp.a_rows = a.rows();
  fp.a_cols = a.cols();
  fp.b_rows = b.rows();
  fp.b_cols = b.cols();
  fp.a_nnz = a.nnz();
  fp.b_nnz = b.nnz();
  fp.config_hash = planning_config_hash(cfg);
  if (with_pattern_hashes) {
    // A * A (the iterate and chain-squaring case) hashes its operand once.
    fp.a_pattern_hash = csr_pattern_hash(a);
    fp.b_pattern_hash = &b == &a ? fp.a_pattern_hash : csr_pattern_hash(b);
  }
  return fp;
}

PlanFingerprint plan_fingerprint_masked(const Csr& a, const Csr& b,
                                        const Csr& mask, const SpeckConfig& cfg,
                                        bool with_pattern_hashes) {
  PlanFingerprint fp = plan_fingerprint(a, b, cfg, with_pattern_hashes);
  fp.masked = true;
  fp.mask_rows = mask.rows();
  fp.mask_cols = mask.cols();
  fp.mask_nnz = mask.nnz();
  if (with_pattern_hashes) {
    // A mask that is an operand (L * L under L) reuses its hash.
    fp.mask_pattern_hash = &mask == &a   ? fp.a_pattern_hash
                           : &mask == &b ? fp.b_pattern_hash
                                         : csr_pattern_hash(mask);
  }
  return fp;
}

PlanFingerprint plan_fingerprint(const Csr& a, const Csr& b, const Csr* mask,
                                 const SpeckConfig& cfg,
                                 bool with_pattern_hashes) {
  return mask != nullptr
             ? plan_fingerprint_masked(a, b, *mask, cfg, with_pattern_hashes)
             : plan_fingerprint(a, b, cfg, with_pattern_hashes);
}

namespace {

/// Heap bytes behind a std::string: zero while the small-string buffer
/// suffices, capacity + terminator once it spills to the heap.
std::size_t string_heap_bytes(const std::string& s) {
  return s.capacity() > sizeof(std::string) - 1 ? s.capacity() + 1 : 0;
}

}  // namespace

std::size_t SpeckPlan::byte_size() const {
  // Allocated (capacity-based) footprint of everything a cached plan pins:
  // the C pattern arrays, the replay start bits, the captured diagnostics
  // tail and the replay trace including each launch's name string. The
  // size-based accounting this replaces undercounted all of the heap slack
  // plus every string, which let the plan-cache byte budget admit more than
  // it was configured for.
  std::size_t trace_bytes = replay_trace.capacity() * sizeof(sim::LaunchResult);
  for (const sim::LaunchResult& launch : replay_trace) {
    trace_bytes += string_heap_bytes(launch.name);
  }
  return sizeof(SpeckPlan) + c_row_offsets.capacity() * sizeof(offset_t) +
         c_col_indices.capacity() * sizeof(index_t) + program.byte_size() +
         trace_bytes + string_heap_bytes(incomplete_reason) +
         string_heap_bytes(diagnostics.plan_fallback_reason);
}

std::size_t estimate_plan_bytes(const Csr& a, const Csr& b) {
  // Upper bound on what a plan for (a, b) will pin, computable before any
  // planning work: the C pattern holds at most one entry per intermediate
  // product plus the row offsets, and each row has one replay start bit.
  // The replay trace holds one numeric launch per kernel config (at most
  // six, kernel_configs) plus one radix-sort or exact-fallback launch, and
  // no launch name ("numeric_masked/1024", "numeric_est_fallback") spills
  // more than 32 bytes. The diagnostics tail is a fixed-size member; its
  // reason strings, charged by byte_size, stay empty on a complete plan, and
  // the bound leaves them 64 bytes each. Mismatched operands are charged
  // nothing: the pipeline rejects them.
  constexpr std::size_t kMaxReplayLaunches = 8;
  constexpr std::size_t kMaxLaunchNameBytes = 32;
  constexpr std::size_t kDiagnosticsTailBytes = 2 * 64;
  if (a.cols() != b.rows()) return sizeof(SpeckPlan);
  const auto products = static_cast<std::size_t>(count_products(a, b));
  const auto rows = static_cast<std::size_t>(a.rows());
  const std::size_t pattern_bytes =
      products * sizeof(index_t) + (rows + 1) * sizeof(offset_t);
  const std::size_t start_bits = rows * sizeof(std::uint8_t);
  const std::size_t trace_bytes =
      kMaxReplayLaunches * (sizeof(sim::LaunchResult) + kMaxLaunchNameBytes);
  return sizeof(SpeckPlan) + pattern_bytes + start_bits + trace_bytes +
         kDiagnosticsTailBytes;
}

}  // namespace speck
