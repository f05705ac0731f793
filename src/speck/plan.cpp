#include "speck/plan.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include "common/check.h"
#include "common/prefix_sum.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "speck/kernels_detail.h"

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
  // planning state, the C pattern arrays, the replay program, the captured
  // diagnostics tail and the replay trace including each launch's name
  // string. The size-based accounting this replaces undercounted all of the
  // heap slack plus every string, which let the plan-cache byte budget admit
  // more than it was configured for.
  std::size_t trace_bytes = replay_trace.capacity() * sizeof(sim::LaunchResult);
  for (const sim::LaunchResult& launch : replay_trace) {
    trace_bytes += string_heap_bytes(launch.name);
  }
  return sizeof(SpeckPlan) + analysis.byte_size() + symbolic_plan.byte_size() +
         numeric_plan.byte_size() + row_nnz.capacity() * sizeof(index_t) +
         c_row_offsets.capacity() * sizeof(offset_t) +
         c_col_indices.capacity() * sizeof(index_t) + program.byte_size() +
         trace_bytes + string_heap_bytes(incomplete_reason) +
         string_heap_bytes(diagnostics.plan_fallback_reason);
}

std::size_t estimate_plan_bytes(const Csr& a, const Csr& b) {
  // Upper bound on what a plan for (a, b) will pin, computable before any
  // planning work: the replay program stores one packed dest word per
  // intermediate product (the value positions are re-derived from the CSR
  // structure at replay time); the C pattern is at most one entry per
  // product plus the row-offset array; the per-row planning state (analysis
  // arrays, bin plans, row_nnz) is a small per-row constant.
  std::size_t ops = 0;
  for (const index_t k : a.col_indices()) {
    ops += static_cast<std::size_t>(b.row_length(k));
  }
  const auto rows = static_cast<std::size_t>(a.rows());
  const std::size_t program_bytes =
      ops * sizeof(std::uint32_t) + (rows + 1) * sizeof(offset_t);
  const std::size_t pattern_bytes =
      ops * sizeof(index_t) + (rows + 1) * sizeof(offset_t);
  const std::size_t planning_bytes =
      rows * (sizeof(offset_t) + 4 * sizeof(index_t) + sizeof(index_t));
  return sizeof(SpeckPlan) + program_bytes + pattern_bytes + planning_bytes;
}

NumericReplayProgram build_replay_program(const KernelContext& ctx,
                                          const BinPlan& numeric_plan,
                                          std::span<const index_t> row_sizes,
                                          std::span<const offset_t> c_row_offsets,
                                          std::span<const index_t> c_col_indices) {
  constexpr std::uint32_t kAssignFirst = NumericReplayProgram::kAssignFirst;
  const Csr& a = *ctx.a;
  const Csr& b = *ctx.b;
  const auto rows = static_cast<std::size_t>(a.rows());

  NumericReplayProgram program;
  program.masked = ctx.mask != nullptr;
  program.row_op_start.assign(rows + 1, 0);
  if (rows == 0) return program;

  ThreadPool& pool = pool_or_global(ctx.pool);
  WorkspacePool local_workspaces;
  WorkspacePool& workspaces =
      ctx.workspaces != nullptr ? *ctx.workspaces : local_workspaces;
  workspaces.ensure(pool.thread_count());

  // Masked programs never assign, so only unmasked ones need the per-row
  // accumulator methods.
  const std::vector<RowMethod> methods =
      program.masked ? std::vector<RowMethod>{}
                     : detail::row_methods(ctx, numeric_plan, row_sizes);

  // Every product gets a dest word — a masked replay walks them all and
  // drops the off-mask ones — so a row's slice is its exact product count,
  // then a prefix sum (SIMD scan) places the slices.
  std::vector<offset_t>& starts = program.row_op_start;
  pool.parallel_for(rows, detail::kRowChunk,
                    [&](std::size_t begin, std::size_t end, int /*worker*/) {
                      for (std::size_t r = begin; r < end; ++r) {
                        starts[r + 1] = ctx.exact_products(static_cast<index_t>(r));
                      }
                    });
  inclusive_prefix_sum(std::span<offset_t>(starts.data() + 1, rows), ctx.simd);
  program.dest.resize(static_cast<std::size_t>(starts.back()));

  const auto b_cols_total = static_cast<std::size_t>(b.cols());
  pool.parallel_for(rows, detail::kRowChunk, [&](std::size_t begin,
                                                 std::size_t end, int worker) {
    KernelWorkspace& ws = workspaces.at(worker);
    std::vector<std::uint8_t>& seen = ws.replay_seen();
    // Column -> local C-row slot scatter map, never cleared between rows:
    // each row writes all of its own columns before reading, and a stale
    // entry can only surface for a column missing from the row's frozen
    // pattern, which the recheck below catches.
    std::vector<std::uint32_t>& colmap = ws.colmap(b_cols_total);
    for (std::size_t r = begin; r < end; ++r) {
      std::uint32_t* dest = program.dest.data() + starts[r];
      const auto c_begin = static_cast<std::uint32_t>(c_row_offsets[r]);
      const auto a_cols = a.row_cols(static_cast<index_t>(r));
      if (!program.masked && methods[r] == RowMethod::kDirect) {
        // Single A entry: the C row is the referenced B row, in order.
        if (a_cols.empty()) continue;
        const auto len = static_cast<std::uint32_t>(b.row_length(a_cols.front()));
        for (std::uint32_t j = 0; j < len; ++j) *dest++ = (c_begin + j) | kAssignFirst;
        continue;
      }

      const std::span<const index_t> c_cols = c_col_indices.subspan(
          c_begin, static_cast<std::size_t>(c_row_offsets[r + 1]) - c_begin);
      for (std::size_t l = 0; l < c_cols.size(); ++l) {
        colmap[static_cast<std::size_t>(c_cols[l])] = static_cast<std::uint32_t>(l);
      }
      // Walks the row's products in replay order and stores the row's
      // encoding of each: (whether the product's column is in the frozen
      // pattern, its local slot) -> dest word. The encoding is picked once
      // per row below, never per product.
      const auto emit = [&](auto encode) {
        for (const index_t k : a_cols) {
          for (const index_t col : b.row_cols(k)) {
            const std::uint32_t local = colmap[static_cast<std::size_t>(col)];
            *dest++ = encode(local < c_cols.size() && c_cols[local] == col, local);
          }
        }
      };
      constexpr const char* kMissing =
          "replay program: product column missing from the frozen C pattern";
      if (program.masked) {
        // Off-mask products are dropped; the rest add into the zero-filled
        // output, mirroring the masked kernels' 0.0 + p first touch.
        emit([&](bool found, std::uint32_t local) {
          return found ? c_begin + local : NumericReplayProgram::kSkip;
        });
      } else if (methods[r] == RowMethod::kHash) {
        // Hash rows assign their first contribution to a slot, then add.
        seen.assign(c_cols.size(), 0);
        emit([&](bool found, std::uint32_t local) {
          SPECK_ASSERT(found, kMissing);
          const std::uint32_t word =
              (c_begin + local) | (seen[local] == 0 ? kAssignFirst : 0u);
          seen[local] = 1;
          return word;
        });
      } else {
        // Dense rows add into a zero-initialized window.
        emit([&](bool found, std::uint32_t local) {
          SPECK_ASSERT(found, kMissing);
          return c_begin + local;
        });
      }
    }
  });

  return program;
}

}  // namespace speck
