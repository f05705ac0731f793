#include "speck/estimator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/bit_utils.h"
#include "common/prng.h"
#include "common/sorting.h"
#include "speck/hash_map.h"
#include "speck/kernels_detail.h"

namespace speck {
namespace {

/// Expected number of distinct columns among `products` draws over a column
/// universe of size `n` (the balls-into-bins compression correction:
/// n * (1 - (1 - 1/n)^p), evaluated stably via expm1/log1p).
double distinct_columns(double products, double n, double log_keep) {
  if (products <= 0.0 || n <= 0.0) return 0.0;
  return -n * std::expm1(products * log_keep);
}

/// Window slots per entry up to which a hash row's extraction scans its
/// column window rather than radix-sorting its entries.
constexpr std::size_t kScanPerEntry = 4;

/// Merges one row of C into `dst_cols`/`dst_vals` (capacity `cap` slots) via
/// the worker's column-scatter map, returning the row's *actual* NNZ — the
/// count keeps going past `cap`, only the stores stop. Fitting non-direct
/// rows are sorted by column in place. `touches` accumulates the products
/// processed (cost accounting).
///
/// Floating-point semantics per method mirror the exact kernels: direct and
/// hash rows *assign* a column's first product, dense rows accumulate into
/// an implicit zero (0.0 + p); every subsequent product adds. Products for
/// one column arrive in ascending-A-column order in every method, which is
/// what keeps the sums bit-identical across planning modes and the replay.
index_t merge_row(const KernelContext& ctx, index_t r, RowMethod method,
                  index_t cap, index_t* dst_cols, value_t* dst_vals,
                  KernelWorkspace& ws, std::size_t& touches) {
  const auto a_cols = ctx.a->row_cols(r);
  const auto a_vals = ctx.a->row_vals(r);
  if (method == RowMethod::kDirect) {
    // Single A entry: the C row is the referenced B row, already sorted.
    if (a_cols.empty()) return 0;
    const value_t av = a_vals.front();
    const index_t k = a_cols.front();
    const auto b_cols = ctx.b->row_cols(k);
    const auto b_vals = ctx.b->row_vals(k);
    touches += b_cols.size();
    const auto len = static_cast<index_t>(b_cols.size());
    if (len <= cap) {
      for (std::size_t j = 0; j < b_cols.size(); ++j) {
        dst_cols[j] = b_cols[j];
        dst_vals[j] = av * b_vals[j];
      }
    }
    return len;
  }

  const auto b_cols_total = static_cast<std::size_t>(ctx.b->cols());
  std::vector<std::uint32_t>& colmap = ws.colmap(b_cols_total);
  std::vector<std::uint32_t>& epoch = ws.estimate_epoch();
  const std::uint32_t cur =
      next_stamp(epoch, ws.estimate_epoch_counter(), b_cols_total);

  const bool dense = method == RowMethod::kDense;
  const auto cap_u = static_cast<std::uint32_t>(cap);
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < a_cols.size(); ++i) {
    const value_t av = a_vals[i];
    const auto b_cols = ctx.b->row_cols(a_cols[i]);
    const auto b_vals = ctx.b->row_vals(a_cols[i]);
    touches += b_cols.size();
    for (std::size_t j = 0; j < b_cols.size(); ++j) {
      const auto col = static_cast<std::size_t>(b_cols[j]);
      const value_t p = av * b_vals[j];
      if (epoch[col] != cur) {
        epoch[col] = cur;
        colmap[col] = count;
        if (count < cap_u) {
          dst_cols[count] = b_cols[j];
          dst_vals[count] = dense ? 0.0 + p : p;
        }
        ++count;
      } else {
        const std::uint32_t slot = colmap[col];
        if (slot < cap_u) dst_vals[slot] += p;
      }
    }
  }

  const auto actual = static_cast<index_t>(count);
  if (actual <= cap && actual > 1) {
    std::vector<DeviceHashMap::Entry>& entries = ws.entries();
    entries.resize(static_cast<std::size_t>(actual));
    // Extraction strategy is pure perf — both paths emit the identical
    // ascending-column permutation of the fully accumulated slot values.
    // Dense rows always scan their window (mirroring the exact dense
    // kernel); hash rows scan too when the row's exact column range is at
    // most kScanPerEntry slots per entry — the usual case on banded
    // matrices — and radix-sort their entries otherwise.
    const auto ri = static_cast<std::size_t>(r);
    const auto lo = static_cast<std::size_t>(ctx.analysis->col_min[ri]);
    const auto hi = static_cast<std::size_t>(ctx.analysis->col_max[ri]);
    const std::size_t window = hi - lo + 1;
    if (dense || window <= kScanPerEntry * entries.size()) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        entries[i].value = dst_vals[i];
      }
      std::uint32_t w = 0;
      for (std::size_t col = lo; col <= hi; ++col) {
        if (epoch[col] == cur) {
          dst_cols[w] = static_cast<index_t>(col);
          dst_vals[w] = entries[colmap[col]].value;
          ++w;
        }
      }
      SPECK_ASSERT(w == count, "window extraction lost columns");
    } else {
      // First-touch order is not sorted; sort the (col, val) pairs through
      // the worker's entry scratch (warm after the first block).
      for (std::size_t i = 0; i < entries.size(); ++i) {
        entries[i] = DeviceHashMap::Entry{
            static_cast<key64_t>(static_cast<std::uint32_t>(dst_cols[i])),
            dst_vals[i]};
      }
      const std::span<const DeviceHashMap::Entry> sorted = radix_sort_records(
          entries, ws.sort_scratch(), [](const auto& e) { return e.key; });
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        dst_cols[i] = static_cast<index_t>(sorted[i].key);
        dst_vals[i] = sorted[i].value;
      }
    }
  }
  return actual;
}

/// Cost observables one block's merged rows accumulate.
struct MergeTally {
  std::size_t touches = 0;  ///< intermediate products processed
  std::size_t written = 0;  ///< elements of rows that fit their slot
  std::size_t sorted = 0;   ///< of those, elements sorted in place
};

}  // namespace

RowEstimate estimate_rows(const Csr& a, const Csr& b, const SpeckConfig& cfg,
                          sim::Launch& launch, ThreadPool* pool,
                          const FaultInjector* faults) {
  RowEstimate out;
  RowAnalysis& an = out.analysis;
  const auto rows = static_cast<std::size_t>(a.rows());
  an.rows = a.rows();
  an.products.assign(rows, 0);
  an.longest_b_row.assign(rows, 0);
  an.col_min.assign(rows, 0);
  an.col_max.assign(rows, 0);
  out.row_nnz_estimate.assign(rows, 0);

  const auto samples = static_cast<std::size_t>(cfg.estimator_samples);
  const double margin = cfg.estimator_safety_margin;
  const double n_cols = static_cast<double>(b.cols());
  const index_t col_cap = b.cols();
  // (1 - 1/n)^p via p * log1p(-1/n); hoisted — constant across rows.
  const double log_keep = b.cols() > 1 ? std::log1p(-1.0 / n_cols) : 0.0;

  pool_or_global(pool).parallel_for(
      rows, detail::kRowChunk,
      [&](std::size_t begin, std::size_t end, int /*worker*/) {
        for (std::size_t ri = begin; ri < end; ++ri) {
          const auto r = static_cast<index_t>(ri);
          const auto a_cols = a.row_cols(r);
          const std::size_t row_len = a_cols.size();
          if (row_len == 0) continue;

          // The lightweight exact analysis of analyze_rows. This is the
          // O(nnz_A) part the paper keeps; the O(products) symbolic hashing
          // is what the estimator below replaces. The tight column ranges
          // matter — they are what lets the estimated numeric pass pick
          // dense windows exactly like the exact pipeline does.
          const offset_t prod_r = detail::analyze_row(a, b, r, faults, an);

          // The sampled NNZ estimator: short rows use the exact product
          // count; long rows extrapolate from `samples` uniformly drawn
          // B-row lengths instead of trusting the scan above, so the
          // estimate — and with it staging sizes and the fallback rate —
          // remains a pure function of (structure, estimator_seed, row).
          offset_t est_products = prod_r;
          if (row_len > samples) {
            // Stateless per-row PRNG: independent of chunking/threading.
            std::uint64_t sm = cfg.estimator_seed ^
                               (0x9E3779B97F4A7C15ull *
                                (static_cast<std::uint64_t>(ri) + 1));
            Xoshiro256 rng(splitmix64(sm));
            std::uint64_t sum = 0;
            for (std::size_t s = 0; s < samples; ++s) {
              // With replacement — keeps the loop allocation-free; the mean
              // of sampled B-row lengths stays an unbiased estimator.
              const auto pick = static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(row_len)));
              sum += static_cast<std::uint64_t>(
                  b.row_length(a_cols[pick]));
            }
            const double mean =
                static_cast<double>(sum) / static_cast<double>(samples);
            est_products = static_cast<offset_t>(
                mean * static_cast<double>(row_len) + 0.5);
          }

          // Distinct-column correction, then the safety margin, clamped to
          // the hard bounds [1, min(products, b.cols())] for non-empty rows.
          double est = distinct_columns(static_cast<double>(est_products),
                                        n_cols, log_keep) *
                       margin;
          est = std::min(est,
                         std::min(static_cast<double>(est_products), n_cols));
          offset_t est_i =
              prod_r > 0
                  ? std::max<offset_t>(1, static_cast<offset_t>(est))
                  : 0;
          if (faults != nullptr) {
            // The forced-underflow hook: may scale the estimate below the
            // true row size, rerouting the row through the exact fallback.
            est_i = faults->scale_sampled_estimate(est_i);
          }
          est_i = std::min<offset_t>(est_i, static_cast<offset_t>(col_cap));
          out.row_nnz_estimate[ri] = static_cast<index_t>(est_i);
        }
      });

  detail::reduce_products(an);

  // Cost: the exact lightweight scan (same shape as analyze_rows — each NZ
  // of A reads its column index, the B row-offset pair and the referenced
  // row's first/last column) plus the sampled lookups, which are scattered
  // (random index within the row) and pay the PRNG's issued work.
  const auto nnz_a = static_cast<std::size_t>(a.nnz());
  std::size_t sample_work = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto len = static_cast<std::size_t>(a.row_length(r));
    if (len > samples) sample_work += samples;
  }
  const int block_threads = launch.device().max_threads_per_block;
  const std::size_t total_work = nnz_a + sample_work;
  const std::size_t num_blocks = std::max<std::size_t>(
      1, ceil_div(total_work, static_cast<std::size_t>(block_threads)));
  std::size_t remaining_scan = nnz_a;
  std::size_t remaining_sample = sample_work;
  for (std::size_t blk = 0; blk < num_blocks; ++blk) {
    const std::size_t scan = std::min(remaining_scan,
                                      static_cast<std::size_t>(block_threads));
    remaining_scan -= scan;
    const std::size_t sampled =
        std::min(remaining_sample,
                 static_cast<std::size_t>(block_threads) - scan);
    remaining_sample -= sampled;
    auto cost = launch.make_block(block_threads, 4 * 1024);
    cost.global_coalesced(scan);               // col indices of A
    cost.global_coalesced(2 * scan);           // B row offsets (near-sequential)
    cost.global_scattered(scan / 2 + sampled); // first/last cols + samples
    cost.smem_atomic(4.0 * static_cast<double>(scan));  // per-row reductions
    cost.issued(static_cast<double>(block_threads),
                sampled > 0 ? 8.0 : 6.0);      // scan + PRNG/extrapolation
    cost.global_coalesced(4 * scan / 16);      // per-row outputs (amortized)
    launch.add(cost);
  }
  return out;
}

NumericOutcome run_numeric_estimated(const KernelContext& ctx, const BinPlan& plan,
                                     std::span<const index_t> row_nnz_estimate) {
  return detail::run_staged_pass<MergeTally>(
      ctx, plan, row_nnz_estimate, "numeric_est/",
      [&](const KernelConfig& /*config*/, index_t r, RowMethod method, index_t cap,
          index_t* cols, value_t* vals, KernelWorkspace& ws,
          sim::BlockCost& /*cost*/, PassStats& /*counters*/, MergeTally& tally) {
        const index_t actual = merge_row(ctx, r, method, cap, cols, vals, ws,
                                         tally.touches);
        if (actual <= cap) {
          tally.written += static_cast<std::size_t>(actual);
          // Dense and direct rows emit in column order without sorting.
          if (method == RowMethod::kHash) {
            tally.sorted += static_cast<std::size_t>(actual);
          }
        }
        return actual;
      },
      [](sim::BlockCost& cost, const MergeTally& tally) {
        cost.smem_atomic(static_cast<double>(tally.touches));  // scatter-map merge
        cost.issued(static_cast<double>(tally.sorted), 4.0);   // in-slot pair sort
        cost.global_coalesced(tally.written);
        cost.global_coalesced64(tally.written);
      },
      // Overflow rule: rows whose estimate underflowed re-run the exact merge
      // into their exactly-sized final slots — this is how an estimated plan
      // self-corrects without ever producing an inexact C.
      [&](std::span<const index_t> fallback_rows, std::span<const RowMethod> methods,
          NumericOutcome& out) {
        const std::span<const offset_t> offsets = out.c.row_offsets();
        index_t* const out_cols = out.c.col_indices_mutable().data();
        value_t* const out_vals = out.c.values_mutable().data();
        ThreadPool& pool = pool_or_global(ctx.pool);
        WorkspacePool local_workspaces;
        WorkspacePool& workspaces =
            ctx.workspaces != nullptr ? *ctx.workspaces : local_workspaces;
        workspaces.ensure(pool.thread_count());
        sim::Launch fallback_launch("numeric_est_fallback", *ctx.device, *ctx.model);
        const KernelConfig& largest = ctx.configs->back();
        std::vector<std::optional<sim::BlockCost>> costs(fallback_rows.size());
        constexpr std::size_t kFallbackChunk = 4;
        pool.parallel_for(
            fallback_rows.size(), kFallbackChunk,
            [&](std::size_t begin, std::size_t end, int worker) {
              KernelWorkspace& ws = workspaces.at(worker);
              for (std::size_t i = begin; i < end; ++i) {
                const index_t r = fallback_rows[i];
                const auto ri = static_cast<std::size_t>(r);
                const auto dst = static_cast<std::size_t>(offsets[ri]);
                std::size_t touches = 0;
                const index_t actual =
                    merge_row(ctx, r, methods[ri], out.row_nnz[ri], out_cols + dst,
                              out_vals + dst, ws, touches);
                SPECK_ASSERT(actual == out.row_nnz[ri],
                             "estimated fallback recount disagrees with the "
                             "first pass");
                auto cost = fallback_launch.make_block(largest.threads,
                                                       largest.scratchpad_bytes);
                cost.global_scattered(touches);
                cost.smem_atomic(static_cast<double>(touches));
                cost.issued(static_cast<double>(actual), 4.0);
                cost.global_coalesced(static_cast<std::size_t>(actual));
                cost.global_coalesced64(static_cast<std::size_t>(actual));
                costs[i] = cost;
              }
            });
        for (const std::optional<sim::BlockCost>& cost : costs) {
          fallback_launch.add(*cost);
        }
        sim::LaunchResult finished = fallback_launch.finish();
        out.stats.seconds += finished.seconds;
        if (ctx.trace != nullptr) ctx.trace->record(std::move(finished));
      });
}

}  // namespace speck
