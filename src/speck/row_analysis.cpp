#include "speck/row_analysis.h"

#include <algorithm>

#include "common/bit_utils.h"
#include "speck/kernels_detail.h"

namespace speck {

RowAnalysis analyze_rows(const Csr& a, const Csr& b, sim::Launch& launch,
                         ThreadPool* pool, const FaultInjector* faults) {
  RowAnalysis out;
  out.rows = a.rows();
  out.products.assign(static_cast<std::size_t>(a.rows()), 0);
  out.longest_b_row.assign(static_cast<std::size_t>(a.rows()), 0);
  out.col_min.assign(static_cast<std::size_t>(a.rows()), 0);
  out.col_max.assign(static_cast<std::size_t>(a.rows()), 0);

  const auto b_offsets = b.row_offsets();
  const auto b_cols = b.col_indices();

  // Device execution: parallel over the NZ of A, 1024 threads per block.
  const int block_threads = launch.device().max_threads_per_block;
  const auto nnz_a = static_cast<std::size_t>(a.nnz());
  const std::size_t num_blocks =
      std::max<std::size_t>(1, ceil_div(nnz_a, static_cast<std::size_t>(block_threads)));

  // Each row writes only its own preallocated slots, so the rows can be
  // scanned in parallel chunks; the totals are reduced from the per-row
  // results afterwards (integer sum/max — order-independent).
  pool_or_global(pool).parallel_for(
      static_cast<std::size_t>(a.rows()), detail::kRowChunk,
      [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t ri = begin; ri < end; ++ri) {
          const auto r = static_cast<index_t>(ri);
          offset_t prod_r = 0;
          index_t longest = 0;
          index_t cmin = b.cols();
          index_t cmax = -1;
          for (const index_t col_a : a.row_cols(r)) {
            const offset_t id0 = b_offsets[static_cast<std::size_t>(col_a)];
            const offset_t idn = b_offsets[static_cast<std::size_t>(col_a) + 1];
            const auto len = static_cast<index_t>(idn - id0);
            if (len > 0) {
              cmin = std::min(cmin, b_cols[static_cast<std::size_t>(id0)]);
              cmax = std::max(cmax, b_cols[static_cast<std::size_t>(idn - 1)]);
            }
            prod_r += len;
            longest = std::max(longest, len);
          }
          // Fault injection perturbs the *estimate* only: planning consumes
          // it, but symbolic/numeric correctness never depends on it.
          out.products[ri] =
              faults != nullptr ? faults->scale_estimate(r, prod_r) : prod_r;
          out.longest_b_row[ri] = longest;
          out.col_min[ri] = cmin == b.cols() ? 0 : cmin;
          out.col_max[ri] = cmax < 0 ? 0 : cmax;
        }
      });
  for (const offset_t prod_r : out.products) {
    out.total_products += prod_r;
    out.max_products = std::max(out.max_products, prod_r);
  }
  out.avg_products =
      a.rows() > 0 ? static_cast<double>(out.total_products) / a.rows() : 0.0;

  // Cost: each NZ of A reads its column index (coalesced), the B row offset
  // pair and the first/last column of the referenced row. Column indices
  // within a row of A are sorted, so the offset/column lookups land near the
  // previous ones and mostly hit in L2 — only a fraction pays a full
  // transaction (the paper reports <10% total analysis overhead).
  std::size_t remaining = nnz_a;
  for (std::size_t blk = 0; blk < num_blocks; ++blk) {
    const std::size_t in_block =
        std::min(remaining, static_cast<std::size_t>(block_threads));
    remaining -= in_block;
    auto cost = launch.make_block(block_threads, 4 * 1024);
    cost.global_coalesced(in_block);           // col indices of A
    cost.global_coalesced(2 * in_block);       // B row offsets (near-sequential)
    cost.global_scattered(in_block / 2);       // first/last columns (L2 misses)
    cost.smem_atomic(4.0 * static_cast<double>(in_block));  // per-row reductions
    cost.issued(static_cast<double>(block_threads), 6.0);
    cost.global_coalesced(4 * in_block / 16);  // per-row outputs (amortized)
    launch.add(cost);
  }
  return out;
}

}  // namespace speck
