#include "speck/kernels.h"

#include <algorithm>
#include <optional>

#include "common/alloc_counter.h"
#include "common/bit_utils.h"
#include "speck/dense_acc.h"
#include "speck/hash_acc.h"
#include "speck/kernels_detail.h"
#include "speck/local_lb.h"

namespace speck {

using detail::block_stats;
using detail::charge_hash_activity;
using detail::charge_row_sweep;
using detail::global_pool_bytes;

RowMethod choose_symbolic_method(const KernelContext& ctx, index_t row,
                                 bool merged_block, const KernelConfig& config) {
  (void)config;
  const auto r = static_cast<std::size_t>(row);
  if (ctx.cfg->features.direct_rows && ctx.a->row_length(row) == 1) {
    return RowMethod::kDirect;
  }
  if (!merged_block && ctx.cfg->features.dense_accumulation) {
    const auto largest_hash = static_cast<double>(
        ctx.effective_capacity(ctx.configs->back().symbolic_hash_capacity()));
    if (static_cast<double>(ctx.analysis->products[r]) >
        ctx.cfg->symbolic_dense_factor * largest_hash) {
      return RowMethod::kDense;
    }
  }
  return RowMethod::kHash;
}

namespace {

/// Executes one symbolic block: fills `out_row_nnz` for the block's rows
/// (disjoint across blocks), counts methods into `stats` (merged into the
/// pass totals serially afterwards) and returns the block's simulated cost.
/// All transient state lives in the worker's `ws` — after warm-up this
/// function performs no heap allocations.
sim::BlockCost run_symbolic_block(const KernelContext& ctx,
                                  const sim::Launch& launch,
                                  const KernelConfig& config,
                                  std::span<const index_t> rows,
                                  std::vector<index_t>& out_row_nnz,
                                  PassStats& stats, KernelWorkspace& ws) {
  const bool merged = rows.size() > 1;
  auto cost = launch.make_block(config.threads, config.scratchpad_bytes);
  const BlockRowStats row_stats = block_stats(ctx, rows);
  const LocalLbDecision lb =
      choose_group_size(config.threads, row_stats, ctx.cfg->features);

  // A block either runs the shared hash map over all of its rows, or —
  // for single-row blocks — may use dense / direct instead.
  bool all_direct = ctx.cfg->features.direct_rows;
  for (const index_t r : rows) all_direct = all_direct && ctx.a->row_length(r) == 1;

  if (all_direct && !rows.empty()) {
    // Count via B row offsets only; no element access needed. The two
    // offsets of a row are adjacent — one 32-byte sector per row.
    for (const index_t r : rows) {
      const auto a_cols = ctx.a->row_cols(r);
      index_t nnz = 0;
      if (!a_cols.empty()) nnz = ctx.b->row_length(a_cols.front());
      out_row_nnz[static_cast<std::size_t>(r)] = nnz;
      cost.global_segmented(2, 1);
      ++stats.direct_rows;
    }
    cost.issued(static_cast<double>(rows.size()), 2.0);
    cost.global_coalesced(rows.size());
    return cost;
  }

  if (!merged && !rows.empty() &&
      choose_symbolic_method(ctx, rows.front(), merged, config) ==
          RowMethod::kDense) {
    const index_t r = rows.front();
    const auto a_cols = ctx.a->row_cols(r);
    const auto result = dense_accumulate_row(
        *ctx.b, a_cols, {}, ctx.analysis->col_min[static_cast<std::size_t>(r)],
        ctx.analysis->col_max[static_cast<std::size_t>(r)],
        ctx.effective_capacity(config.dense_symbolic_capacity()),
        /*numeric=*/false, ws.dense(), ctx.simd);
    out_row_nnz[static_cast<std::size_t>(r)] =
        static_cast<index_t>(result.cols.size());
    ++stats.dense_rows;
    charge_row_sweep(cost, ctx, rows, lb.group_size, /*numeric=*/false, ws);
    cost.smem_atomic(static_cast<double>(result.element_touches));  // atomicOr
    cost.issued(static_cast<double>(result.element_touches));
    cost.issued(static_cast<double>(result.cells_scanned) / 32.0, 2.0);
    cost.smem(static_cast<double>(result.cells_scanned) / 32.0);
    cost.issued(static_cast<double>(result.passes) *
                static_cast<double>(a_cols.size()));
    cost.global_coalesced(static_cast<std::size_t>(result.cols.size()) / 32 + 1);
    return cost;
  }

  // Hash path: one shared map with compound keys for all rows of the
  // block (5-bit local row | 27-bit column).
  SymbolicHashAccumulator& acc = ws.symbolic_acc(
      ctx.effective_capacity(config.symbolic_hash_capacity()), ctx.faults,
      ctx.simd);
  // Every key of local row `local` is inserted while that row is current,
  // so counting the inserts that were new gives the row's NNZ.
  const bool prefetch_gathers = ctx.simd != SimdBackend::kScalar;
  for (std::size_t local = 0; local < rows.size(); ++local) {
    const index_t r = rows[local];
    const auto a_cols = ctx.a->row_cols(r);
    const key64_t row_bits = compound_key(static_cast<int>(local), 0, ctx.wide_keys);
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < a_cols.size(); ++i) {
      if (prefetch_gathers && i + 1 < a_cols.size()) {
        // Hide the latency of the next B-row gather behind this one's
        // inserts; never changes what is inserted.
        const auto next = static_cast<std::size_t>(a_cols[i + 1]);
        simd::prefetch(ctx.b->col_indices().data() +
                       static_cast<std::size_t>(ctx.b->row_offsets()[next]));
      }
      nnz += acc.insert_segment(row_bits, ctx.b->row_cols(a_cols[i]));
    }
    out_row_nnz[static_cast<std::size_t>(r)] = static_cast<index_t>(nnz);
    ++stats.hash_rows;
  }
  charge_row_sweep(cost, ctx, rows, lb.group_size, /*numeric=*/false, ws);
  charge_hash_activity(cost, acc, stats);
  // Extraction: scan the whole map to count per-row NNZ.
  cost.issued(static_cast<double>(config.symbolic_hash_capacity()));
  cost.smem(static_cast<double>(config.symbolic_hash_capacity()));
  cost.global_coalesced(rows.size());
  return cost;
}

}  // namespace

SymbolicOutcome run_symbolic(const KernelContext& ctx, const BinPlan& plan) {
  SymbolicOutcome out;
  out.row_nnz.assign(static_cast<std::size_t>(ctx.a->rows()), 0);
  out.stats.global_pool_bytes = global_pool_bytes(ctx, plan, /*symbolic=*/true);
  detail::execute_block_plan<std::monostate>(
      ctx, plan, "symbolic/", out.stats,
      [&](const sim::Launch& launch, const KernelConfig& config,
          int /*config_index*/, std::span<const index_t> rows,
          PassStats& counters, std::monostate& /*payload*/,
          KernelWorkspace& ws) {
        return run_symbolic_block(ctx, launch, config, rows, out.row_nnz,
                                  counters, ws);
      },
      [](const std::monostate&) {});
  return out;
}


}  // namespace speck
