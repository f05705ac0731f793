#include "speck/masked_pass.h"

#include <algorithm>
#include <cstring>
#include <variant>

#include "common/bit_utils.h"
#include "common/prefix_sum.h"
#include "speck/hash_map.h"
#include "speck/kernels_detail.h"
#include "speck/local_lb.h"

namespace speck {
namespace {

/// Rows per parallel chunk (compaction); fixed like everywhere else so chunk
/// boundaries are identical at any thread count.
constexpr std::size_t kRowChunk = 256;

/// Accumulator method per row, re-deriving run_numeric's block-level
/// selection from the masked demand exactly like the estimator does from its
/// NNZ estimates: all-direct blocks stream, single-row blocks may go dense,
/// everything else hashes. The masked pass and the masked replay program
/// only need this for the traversal shape — every masked method adds into an
/// implicit zero, so the choice never changes a value bit.
std::vector<RowMethod> methods_for_masked_plan(
    const KernelContext& ctx, const BinPlan& plan,
    std::span<const index_t> masked_demand) {
  const auto rows = static_cast<std::size_t>(ctx.a->rows());
  std::vector<RowMethod> methods(rows, RowMethod::kHash);
  for (const BinPlan::Block& block : plan.blocks) {
    const std::span<const index_t> block_rows(
        plan.row_order.data() + block.begin, block.end - block.begin);
    if (block_rows.empty()) continue;
    bool all_direct = ctx.cfg->features.direct_rows;
    for (const index_t r : block_rows) {
      all_direct = all_direct && ctx.a->row_length(r) == 1;
    }
    if (all_direct) {
      for (const index_t r : block_rows) {
        methods[static_cast<std::size_t>(r)] = RowMethod::kDirect;
      }
      continue;
    }
    if (block_rows.size() == 1) {
      const index_t r = block_rows.front();
      RowMethod method = choose_numeric_method(
          ctx, r, masked_demand[static_cast<std::size_t>(r)],
          /*merged_block=*/false, block.config);
      if (method != RowMethod::kDense) method = RowMethod::kHash;
      methods[static_cast<std::size_t>(r)] = method;
    }
  }
  return methods;
}

/// Cost-model observables one block's masked rows accumulate.
struct MaskedRowCost {
  std::size_t touches = 0;     ///< intermediate products processed
  std::size_t mask_words = 0;  ///< mask columns read (seed / gather lists)
  std::size_t gathered = 0;    ///< mask columns probed by the dense gather
  std::size_t cells = 0;       ///< dense window cells zero-filled
  std::size_t written = 0;     ///< output elements emitted
};

/// Direct masked row (single A entry): a two-pointer sorted intersection of
/// the referenced B row with the mask row. Single product per column, so the
/// oracle's add-into-zero is literally 0.0 + av*bv.
index_t masked_direct_row(const KernelContext& ctx, index_t r, index_t* dst_cols,
                          value_t* dst_vals, MaskedRowCost& rc) {
  const auto a_cols = ctx.a->row_cols(r);
  const auto mask_cols = ctx.mask->row_cols(r);
  const value_t av = ctx.a->row_vals(r).front();
  const index_t k = a_cols.front();
  const auto b_cols = ctx.b->row_cols(k);
  const auto b_vals = ctx.b->row_vals(k);
  rc.touches += b_cols.size();
  index_t count = 0;
  std::size_t bi = 0;
  for (const index_t mc : mask_cols) {
    while (bi < b_cols.size() && b_cols[bi] < mc) ++bi;
    if (bi == b_cols.size()) break;
    if (b_cols[bi] == mc) {
      dst_cols[count] = mc;
      dst_vals[count] = 0.0 + av * b_vals[bi];
      ++count;
    }
  }
  return count;
}

/// Hash masked row: the mask columns are pre-seeded into the scratchpad map
/// as the only admissible keys, every product streams through
/// accumulate-if-present (a non-mask column misses and is dropped without
/// claiming a slot), and extraction probes the mask columns back in
/// ascending order — the output emerges sorted with no sort pass.
index_t masked_hash_row(const KernelContext& ctx, const KernelConfig& config,
                        index_t r, index_t* dst_cols, value_t* dst_vals,
                        KernelWorkspace& ws, sim::BlockCost& cost,
                        PassStats& counters, MaskedRowCost& rc) {
  const auto a_cols = ctx.a->row_cols(r);
  const auto a_vals = ctx.a->row_vals(r);
  const auto mask_cols = ctx.mask->row_cols(r);
  MaskedNumericAccumulator& acc = ws.masked_acc(
      ctx.effective_capacity(config.numeric_hash_capacity()), ctx.faults,
      ctx.simd);
  for (const index_t mc : mask_cols) {
    acc.seed(compound_key(0, mc, ctx.wide_keys));
  }
  const bool prefetch_gathers = ctx.simd != SimdBackend::kScalar;
  for (std::size_t i = 0; i < a_cols.size(); ++i) {
    const index_t k = a_cols[i];
    if (prefetch_gathers && i + 1 < a_cols.size()) {
      const auto next = static_cast<std::size_t>(
          ctx.b->row_offsets()[static_cast<std::size_t>(a_cols[i + 1])]);
      simd::prefetch(ctx.b->col_indices().data() + next);
      simd::prefetch(ctx.b->values().data() + next);
    }
    const auto b_cols = ctx.b->row_cols(k);
    const auto b_vals = ctx.b->row_vals(k);
    rc.touches += b_cols.size();
    for (std::size_t j = 0; j < b_cols.size(); ++j) {
      acc.accumulate(compound_key(0, b_cols[j], ctx.wide_keys),
                     a_vals[i] * b_vals[j]);
    }
  }
  index_t count = 0;
  for (const index_t mc : mask_cols) {
    value_t v;
    if (acc.lookup_touched(compound_key(0, mc, ctx.wide_keys), &v)) {
      dst_cols[count] = mc;
      dst_vals[count] = v;
      ++count;
    }
  }
  detail::charge_hash_activity(cost, acc, counters);
  return count;
}

/// Dense masked row: ascending window passes over [col_min, col_max] with
/// per-A-entry cursors (each product visited exactly once, like the exact
/// dense kernel), then a vectorized gather over the mask columns falling in
/// the window. The window is zero-filled at every pass start — separate
/// mask_* scratch buffers, so the exact dense path's self-cleaning window
/// invariant is untouched — which makes every accumulation 0.0 + p.
index_t masked_dense_row(const KernelContext& ctx, const KernelConfig& config,
                         index_t r, index_t* dst_cols, value_t* dst_vals,
                         DenseScratch& scratch, MaskedRowCost& rc) {
  const Csr& b = *ctx.b;
  const auto a_cols = ctx.a->row_cols(r);
  const auto a_vals = ctx.a->row_vals(r);
  const auto mask_cols = ctx.mask->row_cols(r);
  const auto ri = static_cast<std::size_t>(r);
  const index_t col_min = ctx.analysis->col_min[ri];
  const index_t col_max = ctx.analysis->col_max[ri];
  const std::size_t window_columns =
      ctx.effective_capacity(config.dense_numeric_capacity());
  const auto window = static_cast<index_t>(window_columns);

  if (scratch.mask_cursor.size() < a_cols.size()) {
    scratch.mask_cursor.resize(a_cols.size());
  }
  for (std::size_t i = 0; i < a_cols.size(); ++i) {
    scratch.mask_cursor[i] =
        b.row_offsets()[static_cast<std::size_t>(a_cols[i])];
  }
  if (scratch.mask_window_vals.size() < window_columns) {
    scratch.mask_window_vals.resize(window_columns);
  }
  if (scratch.mask_occupied.size() < window_columns + simd::kMaskedGatherPad) {
    scratch.mask_occupied.resize(window_columns + simd::kMaskedGatherPad, 0);
  }
  if (scratch.mask_gather_vals.size() < mask_cols.size()) {
    scratch.mask_gather_vals.resize(mask_cols.size());
    scratch.mask_gather_touched.resize(mask_cols.size());
  }
  const auto b_cols = b.col_indices();
  const auto b_vals = b.values();

  index_t count = 0;
  std::size_t mp = 0;  // next unconsumed mask column
  while (mp < mask_cols.size() && mask_cols[mp] < col_min) ++mp;
  for (index_t window_start = col_min; window_start <= col_max;
       window_start += window) {
    const auto window_end = static_cast<index_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(window_start) + window - 1, col_max));
    const auto cells = static_cast<std::size_t>(window_end - window_start) + 1;
    std::fill_n(scratch.mask_window_vals.data(), cells, 0.0);
    std::memset(scratch.mask_occupied.data(), 0, cells);
    rc.cells += cells;

    for (std::size_t i = 0; i < a_cols.size(); ++i) {
      const auto row_end =
          b.row_offsets()[static_cast<std::size_t>(a_cols[i]) + 1];
      offset_t& cur = scratch.mask_cursor[i];
      while (cur < row_end &&
             b_cols[static_cast<std::size_t>(cur)] <= window_end) {
        const index_t c = b_cols[static_cast<std::size_t>(cur)];
        const auto slot = static_cast<std::size_t>(c - window_start);
        scratch.mask_occupied[slot] = 1;
        scratch.mask_window_vals[slot] +=
            a_vals[i] * b_vals[static_cast<std::size_t>(cur)];
        ++cur;
        ++rc.touches;
      }
    }

    const std::size_t seg_begin = mp;
    while (mp < mask_cols.size() && mask_cols[mp] <= window_end) ++mp;
    const std::size_t n = mp - seg_begin;
    if (n == 0) continue;
    rc.gathered += n;
    simd::masked_window_gather(
        mask_cols.data() + seg_begin, n, window_start,
        scratch.mask_window_vals.data(), scratch.mask_occupied.data(),
        scratch.mask_gather_vals.data(), scratch.mask_gather_touched.data(),
        ctx.simd);
    for (std::size_t i = 0; i < n; ++i) {
      if (scratch.mask_gather_touched[i] != 0) {
        dst_cols[count] = mask_cols[seg_begin + i];
        dst_vals[count] = scratch.mask_gather_vals[i];
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

MaskedNumericOutcome run_numeric_masked(const KernelContext& ctx,
                                        const BinPlan& plan,
                                        std::span<const index_t> masked_demand) {
  SPECK_REQUIRE(ctx.mask != nullptr, "masked numeric pass requires a mask");
  MaskedNumericOutcome out;
  const auto rows = static_cast<std::size_t>(ctx.a->rows());
  out.row_nnz.assign(rows, 0);
  out.stats.global_pool_bytes =
      detail::global_pool_bytes(ctx, plan, /*symbolic=*/false);

  // Staging: every row gets a demand-sized slot. The cap is a hard bound —
  // a row can never touch more mask columns than min(products, mask nnz) —
  // so unlike the estimated pass there is no overrun bookkeeping and no
  // fallback. The scratch persists across calls and only grows; every
  // element is written before it is read.
  thread_local std::vector<offset_t> masked_offsets;
  if (masked_offsets.size() < rows + 1) masked_offsets.resize(rows + 1);
  masked_offsets[0] = 0;
  simd::widen_i32_to_i64(masked_demand.data(), masked_offsets.data() + 1, rows,
                         ctx.simd);
  inclusive_prefix_sum(std::span<offset_t>(masked_offsets.data() + 1, rows),
                       ctx.simd);
  const auto staging_total = static_cast<std::size_t>(masked_offsets[rows]);
  thread_local std::vector<index_t> staging_cols;
  thread_local std::vector<value_t> staging_vals;
  if (staging_cols.size() < staging_total) staging_cols.resize(staging_total);
  if (staging_vals.size() < staging_total) staging_vals.resize(staging_total);
  // Snapshot raw pointers for the worker lambdas: naming a thread_local
  // inside them would resolve through each *worker's* TLS (empty vectors),
  // not the coordinating thread's scratch.
  const offset_t* const masked_offsets_ptr = masked_offsets.data();
  index_t* const staging_cols_ptr = staging_cols.data();
  value_t* const staging_vals_ptr = staging_vals.data();

  const std::vector<RowMethod> methods =
      methods_for_masked_plan(ctx, plan, masked_demand);

  detail::execute_block_plan<std::monostate>(
      ctx, plan, "numeric_masked/", out.stats,
      [&](const sim::Launch& launch, const KernelConfig& config,
          int /*config_index*/, std::span<const index_t> block_rows,
          PassStats& counters, std::monostate& /*payload*/,
          KernelWorkspace& ws) {
        auto cost = launch.make_block(config.threads, config.scratchpad_bytes);
        const BlockRowStats row_stats = detail::block_stats(ctx, block_rows);
        const LocalLbDecision lb =
            choose_group_size(config.threads, row_stats, ctx.cfg->features);

        MaskedRowCost rc;
        for (const index_t r : block_rows) {
          const auto ri = static_cast<std::size_t>(r);
          const RowMethod method = methods[ri];
          const auto base = static_cast<std::size_t>(masked_offsets_ptr[ri]);
          rc.mask_words += static_cast<std::size_t>(ctx.mask->row_length(r));
          index_t actual = 0;
          // A row with no products or an empty mask row is empty; skipping
          // it early keeps huge-mask/empty-A rows from paying a seed pass.
          if (masked_demand[ri] > 0) {
            switch (method) {
              case RowMethod::kDirect:
                actual = masked_direct_row(ctx, r, staging_cols_ptr + base,
                                           staging_vals_ptr + base, rc);
                break;
              case RowMethod::kDense:
                actual = masked_dense_row(ctx, config, r,
                                          staging_cols_ptr + base,
                                          staging_vals_ptr + base, ws.dense(),
                                          rc);
                break;
              case RowMethod::kHash:
                actual = masked_hash_row(ctx, config, r,
                                         staging_cols_ptr + base,
                                         staging_vals_ptr + base, ws, cost,
                                         counters, rc);
                break;
            }
          }
          SPECK_ASSERT(actual <= masked_demand[ri],
                       "masked row exceeded its demand bound");
          out.row_nnz[ri] = actual;
          rc.written += static_cast<std::size_t>(actual);
          switch (method) {
            case RowMethod::kDirect: ++counters.direct_rows; break;
            case RowMethod::kDense: ++counters.dense_rows; break;
            case RowMethod::kHash: ++counters.hash_rows; break;
          }
        }

        detail::charge_row_sweep(cost, ctx, block_rows, lb.group_size,
                                 /*numeric=*/true, ws);
        cost.global_coalesced(rc.mask_words);  // mask columns (seed/gather)
        cost.smem(2.0 * static_cast<double>(rc.touches));  // window scatter
        cost.issued(static_cast<double>(rc.touches), 2.0);
        cost.smem(static_cast<double>(rc.cells));  // window zero-fill
        cost.issued(static_cast<double>(rc.gathered), 2.0);  // masked gather
        cost.global_coalesced(rc.written);
        cost.global_coalesced64(rc.written);
        return cost;
      },
      [](const std::monostate&) {});

  // Compaction: exact offsets from the actual counts, then every non-empty
  // row moves from its demand-sized staging slot to its final position.
  std::vector<offset_t> offsets(rows + 1, 0);
  simd::widen_i32_to_i64(out.row_nnz.data(), offsets.data() + 1, rows,
                         ctx.simd);
  inclusive_prefix_sum(std::span<offset_t>(offsets.data() + 1, rows), ctx.simd);
  std::vector<index_t> out_cols(static_cast<std::size_t>(offsets.back()));
  std::vector<value_t> out_vals(static_cast<std::size_t>(offsets.back()));

  pool_or_global(ctx.pool).parallel_for(
      rows, kRowChunk, [&](std::size_t begin, std::size_t end, int /*worker*/) {
        for (std::size_t r = begin; r < end; ++r) {
          const auto n = static_cast<std::size_t>(out.row_nnz[r]);
          if (n == 0) continue;
          const auto src = static_cast<std::size_t>(masked_offsets_ptr[r]);
          const auto dst = static_cast<std::size_t>(offsets[r]);
          std::memcpy(out_cols.data() + dst, staging_cols_ptr + src,
                      n * sizeof(index_t));
          std::memcpy(out_vals.data() + dst, staging_vals_ptr + src,
                      n * sizeof(value_t));
        }
      });

  out.c = Csr(ctx.a->rows(), ctx.b->cols(), std::move(offsets),
              std::move(out_cols), std::move(out_vals));
  return out;
}

}  // namespace speck
