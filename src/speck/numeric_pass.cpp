#include "speck/kernels.h"

#include <algorithm>
#include <optional>

#include "common/alloc_counter.h"
#include "common/bit_utils.h"
#include "common/prefix_sum.h"
#include "common/sorting.h"
#include "speck/dense_acc.h"
#include "speck/hash_acc.h"
#include "speck/kernels_detail.h"
#include "speck/local_lb.h"

namespace speck {

using detail::block_stats;
using detail::charge_hash_activity;
using detail::charge_row_sweep;
using detail::global_pool_bytes;

RowMethod choose_numeric_method(const KernelContext& ctx, index_t row,
                                index_t row_nnz, bool merged_block,
                                int config_index) {
  const auto r = static_cast<std::size_t>(row);
  if (ctx.cfg->features.direct_rows && ctx.a->row_length(row) == 1) {
    return RowMethod::kDirect;
  }
  if (merged_block || !ctx.cfg->features.dense_accumulation || row_nnz == 0) {
    return RowMethod::kHash;
  }
  // Rows needing the largest kernel always accumulate densely: the largest
  // hash kernel would require slow global sorting (paper §4.3).
  if (config_index == static_cast<int>(ctx.configs->size()) - 1) {
    return RowMethod::kDense;
  }
  const double range = static_cast<double>(ctx.analysis->col_max[r]) -
                       static_cast<double>(ctx.analysis->col_min[r]) + 1.0;
  const double density = static_cast<double>(row_nnz) / range;
  return density >= ctx.cfg->dense_density_threshold ? RowMethod::kDense
                                                     : RowMethod::kHash;
}

namespace {

/// Per-block contribution to the post-pass radix sort (merged serially in
/// plan order; sums and maxima are order-independent anyway).
struct RadixContribution {
  offset_t elements = 0;
  index_t max_col = 0;
};

/// Executes one numeric block: writes the block's rows of C into their
/// preallocated output slots (disjoint across blocks — no atomics), counts
/// methods into `stats` and returns the block's simulated cost. All
/// transient state lives in the worker's `ws` — after warm-up this function
/// performs no heap allocations.
sim::BlockCost run_numeric_block(const KernelContext& ctx,
                                 const sim::Launch& launch,
                                 const KernelConfig& config, int config_index,
                                 bool largest_sorts_via_radix,
                                 std::span<const index_t> rows,
                                 std::span<const index_t> row_nnz,
                                 const std::vector<offset_t>& offsets,
                                 std::vector<index_t>& out_cols,
                                 std::vector<value_t>& out_vals,
                                 PassStats& stats, RadixContribution& radix,
                                 KernelWorkspace& ws) {
  const bool merged = rows.size() > 1;
  auto cost = launch.make_block(config.threads, config.scratchpad_bytes);
  const BlockRowStats row_stats = block_stats(ctx, rows);
  const LocalLbDecision lb =
      choose_group_size(config.threads, row_stats, ctx.cfg->features);

  bool all_direct = ctx.cfg->features.direct_rows;
  for (const index_t r : rows) all_direct = all_direct && ctx.a->row_length(r) == 1;

  if (all_direct && !rows.empty()) {
    // Direct referencing: stream each referenced B row to the output,
    // scaled by the single A value. Reads are one segment per row;
    // writes land contiguously in C across the block's rows (CSR order),
    // i.e. one coalesced stream.
    std::size_t total_words = 0;
    std::size_t segments = 0;
    for (const index_t r : rows) {
      const auto a_cols = ctx.a->row_cols(r);
      if (a_cols.empty()) continue;
      const value_t av = ctx.a->row_vals(r).front();
      const index_t k = a_cols.front();
      const auto b_cols = ctx.b->row_cols(k);
      const auto b_vals = ctx.b->row_vals(k);
      auto cursor = static_cast<std::size_t>(offsets[static_cast<std::size_t>(r)]);
      for (std::size_t i = 0; i < b_cols.size(); ++i) {
        out_cols[cursor] = b_cols[i];
        out_vals[cursor] = av * b_vals[i];
        ++cursor;
      }
      total_words += b_cols.size();
      ++segments;
      ++stats.direct_rows;
    }
    const double cache = sim::reuse_cache_factor(*ctx.device, ctx.b->byte_size());
    cost.global_segmented(total_words, segments, cache);       // B columns
    cost.global_segmented(total_words * 2, segments, cache);   // B values
    cost.global_coalesced(total_words);                        // C columns
    cost.global_coalesced64(total_words);                      // C values
    cost.lockstep(static_cast<double>(
        ceil_div<std::size_t>(std::max<std::size_t>(total_words, 1),
                              static_cast<std::size_t>(config.threads))));
    return cost;
  }

  const RowMethod single_method =
      rows.empty() ? RowMethod::kHash
                   : choose_numeric_method(
                         ctx, rows.front(),
                         row_nnz[static_cast<std::size_t>(rows.front())], merged,
                         config_index);

  if (!merged && single_method == RowMethod::kDense) {
    const index_t r = rows.front();
    const auto result = dense_accumulate_row(
        *ctx.b, ctx.a->row_cols(r), ctx.a->row_vals(r),
        ctx.analysis->col_min[static_cast<std::size_t>(r)],
        ctx.analysis->col_max[static_cast<std::size_t>(r)],
        ctx.effective_capacity(config.dense_numeric_capacity()),
        /*numeric=*/true, ws.dense(), ctx.simd);
    SPECK_ASSERT(static_cast<index_t>(result.cols.size()) ==
                     row_nnz[static_cast<std::size_t>(r)],
                 "dense numeric row count disagrees with symbolic pass");
    auto cursor = static_cast<std::size_t>(offsets[static_cast<std::size_t>(r)]);
    for (std::size_t i = 0; i < result.cols.size(); ++i) {
      out_cols[cursor] = result.cols[i];
      out_vals[cursor] = result.vals[i];
      ++cursor;
    }
    ++stats.dense_rows;
    charge_row_sweep(cost, ctx, rows, lb.group_size, /*numeric=*/true, ws);
    cost.smem(2.0 * static_cast<double>(result.element_touches));
    cost.issued(static_cast<double>(result.element_touches), 2.0);
    cost.issued(static_cast<double>(result.cells_scanned));
    cost.smem(static_cast<double>(result.cells_scanned));
    // Per-pass compaction prefix sum + output write.
    cost.lockstep(static_cast<double>(result.passes) *
                  log2_pow2(static_cast<std::uint64_t>(config.threads)));
    cost.global_coalesced(result.cols.size());
    cost.global_coalesced64(result.vals.size());
    return cost;
  }

  // Hash path with values.
  NumericHashAccumulator& acc = ws.numeric_acc(
      ctx.effective_capacity(config.numeric_hash_capacity()), ctx.faults,
      ctx.simd);
  const bool prefetch_gathers = ctx.simd != SimdBackend::kScalar;
  for (std::size_t local = 0; local < rows.size(); ++local) {
    const index_t r = rows[local];
    const auto a_cols = ctx.a->row_cols(r);
    const auto a_vals = ctx.a->row_vals(r);
    const key64_t row_bits = compound_key(static_cast<int>(local), 0, ctx.wide_keys);
    for (std::size_t i = 0; i < a_cols.size(); ++i) {
      const index_t k = a_cols[i];
      if (prefetch_gathers && i + 1 < a_cols.size()) {
        // Hide the latency of the next B-row gather behind this one's
        // accumulates; never changes what is accumulated.
        const auto next =
            static_cast<std::size_t>(ctx.b->row_offsets()[
                static_cast<std::size_t>(a_cols[i + 1])]);
        simd::prefetch(ctx.b->col_indices().data() + next);
        simd::prefetch(ctx.b->values().data() + next);
      }
      acc.accumulate_segment(row_bits, ctx.b->row_cols(k), ctx.b->row_vals(k),
                             a_vals[i]);
    }
  }
  // Extraction: one radix sort by compound key. The local row sits above
  // the column bits, so the sorted entries are the block's C rows in
  // order, each sorted by column. Keys are unique, so the result does not
  // depend on the maps' iteration order.
  std::vector<DeviceHashMap::Entry>& entries = ws.entries();
  acc.extract_into(entries);
  const std::span<const DeviceHashMap::Entry> sorted = radix_sort_records(
      entries, ws.sort_scratch(), [](const auto& e) { return e.key; });
  const auto local_row_of = [&](std::size_t e) {
    return static_cast<std::size_t>(key_local_row(sorted[e].key, ctx.wide_keys));
  };
  std::size_t row_begin = 0;
  for (std::size_t local = 0; local < rows.size(); ++local) {
    const auto r = static_cast<std::size_t>(rows[local]);
    const auto row_end = row_begin + static_cast<std::size_t>(row_nnz[r]);
    // The row's entries are exactly [row_begin, row_end): the earlier rows
    // end at row_begin, so the last entry's row and the next one's bound it.
    SPECK_ASSERT(row_end <= sorted.size() &&
                     (row_end == row_begin || local_row_of(row_end - 1) == local) &&
                     (row_end == sorted.size() || local_row_of(row_end) > local),
                 "hash numeric row count disagrees with symbolic pass");
    auto cursor = static_cast<std::size_t>(offsets[r]);
    for (std::size_t e = row_begin; e < row_end; ++e) {
      out_cols[cursor] = key_column(sorted[e].key, ctx.wide_keys);
      out_vals[cursor] = sorted[e].value;
      ++cursor;
    }
    row_begin = row_end;
    ++stats.hash_rows;
  }
  SPECK_ASSERT(row_begin == sorted.size(),
               "hash numeric entries outside the block's rows");
  charge_row_sweep(cost, ctx, rows, lb.group_size, /*numeric=*/true, ws);
  charge_hash_activity(cost, acc, stats);
  const auto total_entries = static_cast<double>(entries.size());
  if (!largest_sorts_via_radix) {
    // Rank sort in scratchpad (O(n^2) issued work, paper §4.3).
    cost.issued(total_entries * total_entries);
    cost.smem(2.0 * total_entries);
  } else {
    // Compact unsorted to global memory; radix-sorted in a later pass.
    radix.elements += static_cast<offset_t>(entries.size());
    for (const auto& entry : entries) {
      radix.max_col = std::max(radix.max_col, key_column(entry.key, ctx.wide_keys));
    }
  }
  cost.issued(static_cast<double>(config.numeric_hash_capacity()));
  cost.smem(static_cast<double>(config.numeric_hash_capacity()));
  cost.global_coalesced(entries.size());
  cost.global_coalesced64(entries.size());
  return cost;
}

}  // namespace

NumericOutcome run_numeric(const KernelContext& ctx, const BinPlan& plan,
                           std::span<const index_t> row_nnz) {
  NumericOutcome out;
  out.stats.global_pool_bytes = global_pool_bytes(ctx, plan, /*symbolic=*/false);

  // Output allocation: offsets from the symbolic row counts.
  const auto row_count = static_cast<std::size_t>(ctx.a->rows());
  std::vector<offset_t> offsets(row_count + 1, 0);
  std::copy(row_nnz.begin(), row_nnz.end(), offsets.begin() + 1);
  inclusive_prefix_sum(std::span<offset_t>(offsets.data() + 1, row_count));
  std::vector<index_t> out_cols(static_cast<std::size_t>(offsets.back()));
  std::vector<value_t> out_vals(static_cast<std::size_t>(offsets.back()));

  offset_t radix_elements = 0;
  index_t radix_max_col = 0;

  // Every block writes its rows of C into disjoint [offsets[r], offsets[r+1])
  // output slots, so the shared driver needs no synchronization beyond its
  // serial commit of costs and radix contributions.
  detail::execute_block_plan<RadixContribution>(
      ctx, plan, "numeric/", out.stats,
      [&](const sim::Launch& launch, const KernelConfig& config,
          int config_index, std::span<const index_t> rows, PassStats& counters,
          RadixContribution& radix, KernelWorkspace& ws) {
        return run_numeric_block(ctx, launch, config, config_index,
                                 /*largest_sorts_via_radix=*/config_index > 2,
                                 rows, row_nnz, offsets, out_cols, out_vals,
                                 counters, radix, ws);
      },
      [&](const RadixContribution& radix) {
        radix_elements += radix.elements;
        radix_max_col = std::max(radix_max_col, radix.max_col);
      });

  // Device radix sort pass over the rows emitted unsorted.
  if (radix_elements > 0) {
    sim::Launch sort_launch("radix_sort", *ctx.device, *ctx.model);
    const int passes = radix_pass_count(static_cast<std::uint32_t>(radix_max_col));
    const int threads = ctx.device->max_threads_per_block;
    const auto elements_per_block = static_cast<offset_t>(threads) * 8;
    const offset_t blocks = ceil_div<offset_t>(radix_elements, elements_per_block);
    for (offset_t blk = 0; blk < blocks; ++blk) {
      const offset_t elems = std::min<offset_t>(elements_per_block,
                                                radix_elements - blk * elements_per_block);
      auto cost = sort_launch.make_block(threads, 32 * 1024);
      // Each pass reads and writes keys (32-bit) and values (64-bit).
      cost.global_coalesced(static_cast<std::size_t>(elems) * passes * 2);
      cost.global_coalesced64(static_cast<std::size_t>(elems) * passes * 2);
      cost.issued(static_cast<double>(elems) * passes, 4.0);
      cost.smem(static_cast<double>(elems) * passes * 2);
      sort_launch.add(cost);
    }
    sim::LaunchResult finished = sort_launch.finish();
    out.sorting_seconds = finished.seconds;
    if (ctx.trace != nullptr) ctx.trace->record(std::move(finished));
    out.radix_sorted_elements = radix_elements;
  }

  out.c = Csr(ctx.a->rows(), ctx.b->cols(), std::move(offsets), std::move(out_cols),
              std::move(out_vals));
  return out;
}

namespace {

/// Column-map entry of a column outside the current row's C pattern.
constexpr index_t kNoSlot = -1;

/// This thread's column -> local C-row slot map, grown to at least
/// `columns` entries. Every entry is kNoSlot between rows: new entries are
/// filled on growth and replay_rows resets each row's entries after it, so
/// pool workers and service client threads share no state.
std::vector<index_t>& replay_colmap(std::size_t columns) {
  thread_local std::vector<index_t> colmap;
  if (colmap.size() < columns) colmap.resize(columns, kNoSlot);
  return colmap;
}

/// Replay inner loop for rows [begin, end): sets each C row's slots to its
/// start value (appending them to `append` when set, else in `out`),
/// scatters the row's columns into `colmap`, walks A's and B's CSR
/// structure in accumulation order — A entry outer, referenced B row inner
/// — adding every product whose column maps to a slot, and resets the row's
/// map entries. Unmasked patterns hold every product column; masked ones
/// drop the products that map to kNoSlot.
void replay_rows(const Csr& a, const Csr& b, const NumericReplayProgram& program,
                 std::span<const offset_t> c_row_offsets,
                 std::span<const index_t> c_col_indices, std::size_t begin,
                 std::size_t end, std::vector<index_t>& colmap,
                 std::span<value_t> out, std::vector<value_t>* append) {
  const value_t* a_vals = a.values().data();
  const value_t* b_vals = b.values().data();
  const std::span<const offset_t> a_offsets = a.row_offsets();
  const std::span<const offset_t> b_offsets = b.row_offsets();
  const index_t* a_cols = a.col_indices().data();
  const index_t* b_cols = b.col_indices().data();
  index_t* slot_of = colmap.data();
  for (std::size_t r = begin; r < end; ++r) {
    const auto c_begin = static_cast<std::size_t>(c_row_offsets[r]);
    const auto c_len = static_cast<std::size_t>(c_row_offsets[r + 1]) - c_begin;
    const index_t* c_cols = c_col_indices.data() + c_begin;
    const value_t start = program.assign_first[r] != 0 ? -0.0 : 0.0;
    value_t* row_out;
    if (append != nullptr) {
      append->insert(append->end(), c_len, start);
      row_out = append->data() + c_begin;
    } else {
      row_out = out.data() + c_begin;
      std::fill_n(row_out, c_len, start);
    }
    for (std::size_t l = 0; l < c_len; ++l) slot_of[c_cols[l]] = static_cast<index_t>(l);
    const auto row_end = static_cast<std::size_t>(a_offsets[r + 1]);
    for (auto i = static_cast<std::size_t>(a_offsets[r]); i < row_end; ++i) {
      const value_t av = a_vals[i];
      const auto k = static_cast<std::size_t>(a_cols[i]);
      const auto seg_end = static_cast<std::size_t>(b_offsets[k + 1]);
      for (auto bp = static_cast<std::size_t>(b_offsets[k]); bp < seg_end; ++bp) {
        const index_t local = slot_of[b_cols[bp]];
        if (local == kNoSlot) continue;
        row_out[local] += av * b_vals[bp];
      }
    }
    for (std::size_t l = 0; l < c_len; ++l) slot_of[c_cols[l]] = kNoSlot;
  }
}

}  // namespace

std::size_t replay_numeric_values(const Csr& a, const Csr& b,
                                  const NumericReplayProgram& program,
                                  std::span<const offset_t> c_row_offsets,
                                  std::span<const index_t> c_col_indices,
                                  ThreadPool* pool, std::span<value_t> out,
                                  std::vector<value_t>* append) {
  const std::size_t rows = program.assign_first.size();
  if (rows == 0) return 0;
  ThreadPool& workers = pool_or_global(pool);
  if (append != nullptr && workers.thread_count() > 1) {
    // Workers fill disjoint row ranges, so the values must exist up front.
    append->resize(static_cast<std::size_t>(c_row_offsets[rows]));
    out = *append;
    append = nullptr;
  }
  const auto replay = [&](std::size_t begin, std::size_t end) {
    std::vector<index_t>& colmap = replay_colmap(static_cast<std::size_t>(b.cols()));
    const std::size_t allocs_before = detail::alloc_events_now();
    replay_rows(a, b, program, c_row_offsets, c_col_indices, begin, end, colmap,
                out, append);
    return detail::alloc_events_now() - allocs_before;
  };
  if (workers.thread_count() == 1) return replay(0, rows);

  // Fixed row chunking — like the block passes, boundaries are a pure
  // function of the row count, so the replay is bit-identical at any thread
  // count (each C row's products run in order on exactly one worker, and
  // rows own disjoint slots of `out`).
  std::vector<std::size_t> chunk_allocs(
      (rows + detail::kRowChunk - 1) / detail::kRowChunk, 0);
  workers.parallel_for(rows, detail::kRowChunk,
                       [&](std::size_t begin, std::size_t end, int /*worker*/) {
                         chunk_allocs[begin / detail::kRowChunk] += replay(begin, end);
                       });
  std::size_t total_allocs = 0;
  for (const std::size_t n : chunk_allocs) total_allocs += n;
  return total_allocs;
}

}  // namespace speck
