#include "speck/masked_pass.h"

#include <algorithm>
#include <cstring>

#include "common/bit_utils.h"
#include "speck/hash_map.h"
#include "speck/kernels_detail.h"

namespace speck {
namespace {

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
/// accumulate-if-present, one B row segment per A entry (a non-mask column
/// misses and is dropped without claiming a slot), and extraction probes
/// the mask columns back in ascending order — the output emerges sorted
/// with no sort pass.
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
  acc.seed_segment(compound_key(0, 0, ctx.wide_keys), mask_cols);
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
    rc.touches += b_cols.size();
    acc.accumulate_segment(compound_key(0, 0, ctx.wide_keys), b_cols,
                           ctx.b->row_vals(k), a_vals[i]);
  }
  index_t count = 0;
  acc.lookup_segment(compound_key(0, 0, ctx.wide_keys), mask_cols,
                     [&](std::size_t j, value_t sum) {
                       dst_cols[count] = mask_cols[j];
                       dst_vals[count] = sum;
                       ++count;
                     });
  detail::charge_hash_activity(cost, acc, counters);
  return count;
}

/// Dense masked row: ascending window passes over [col_min, col_max] with
/// per-A-entry cursors (each product visited exactly once, like the exact
/// dense kernel), then one pass over the mask columns falling in the window
/// that emits each occupied cell. The window is zero-filled at every pass
/// start — separate mask_* scratch buffers, so the exact dense path's
/// self-cleaning window invariant is untouched — which makes every
/// accumulation 0.0 + p.
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
  if (scratch.mask_occupied.size() < window_columns) {
    scratch.mask_occupied.resize(window_columns, 0);
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

    for (; mp < mask_cols.size() && mask_cols[mp] <= window_end; ++mp) {
      ++rc.gathered;
      const auto slot = static_cast<std::size_t>(mask_cols[mp] - window_start);
      if (scratch.mask_occupied[slot] != 0) {
        dst_cols[count] = mask_cols[mp];
        dst_vals[count] = scratch.mask_window_vals[slot];
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

NumericOutcome run_numeric_masked(const KernelContext& ctx, const BinPlan& plan,
                                  std::span<const index_t> masked_demand) {
  SPECK_REQUIRE(ctx.mask != nullptr, "masked numeric pass requires a mask");
  NumericOutcome out = detail::run_staged_pass<MaskedRowCost>(
      ctx, plan, masked_demand, "numeric_masked/",
      [&](const KernelConfig& config, index_t r, RowMethod method, index_t cap,
          index_t* cols, value_t* vals, KernelWorkspace& ws, sim::BlockCost& cost,
          PassStats& counters, MaskedRowCost& rc) {
        rc.mask_words += static_cast<std::size_t>(ctx.mask->row_length(r));
        // A row with no products or an empty mask row is empty; skipping
        // it early keeps huge-mask/empty-A rows from paying a seed pass.
        if (cap == 0) return index_t{0};
        index_t actual = 0;
        switch (method) {
          case RowMethod::kDirect:
            actual = masked_direct_row(ctx, r, cols, vals, rc);
            break;
          case RowMethod::kDense:
            actual = masked_dense_row(ctx, config, r, cols, vals, ws.dense(), rc);
            break;
          case RowMethod::kHash:
            actual = masked_hash_row(ctx, config, r, cols, vals, ws, cost,
                                     counters, rc);
            break;
        }
        rc.written += static_cast<std::size_t>(actual);
        return actual;
      },
      [](sim::BlockCost& cost, const MaskedRowCost& rc) {
        cost.global_coalesced(rc.mask_words);  // mask columns (seed/gather)
        cost.smem(2.0 * static_cast<double>(rc.touches));  // window scatter
        cost.issued(static_cast<double>(rc.touches), 2.0);
        cost.smem(static_cast<double>(rc.cells));  // window zero-fill
        cost.issued(static_cast<double>(rc.gathered), 2.0);  // masked gather
        cost.global_coalesced(rc.written);
        cost.global_coalesced64(rc.written);
      },
      // Overflow rule: none can happen — a row never touches more mask
      // columns than min(products, mask row nnz), its cap.
      [](std::span<const index_t> overflowed, auto&&...) {
        SPECK_ASSERT(overflowed.empty(), "masked row exceeded its demand bound");
      });
  out.stats.global_pool_bytes =
      detail::global_pool_bytes(ctx, plan, /*symbolic=*/false);
  return out;
}

}  // namespace speck
