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

  // Device execution: parallel over the NZ of A, 1024 threads per block.
  const int block_threads = launch.device().max_threads_per_block;
  const auto nnz_a = static_cast<std::size_t>(a.nnz());
  const std::size_t num_blocks =
      std::max<std::size_t>(1, ceil_div(nnz_a, static_cast<std::size_t>(block_threads)));

  // Each row writes only its own preallocated slots, so the rows can be
  // scanned in parallel chunks; the totals are reduced from the per-row
  // results afterwards.
  pool_or_global(pool).parallel_for(
      static_cast<std::size_t>(a.rows()), detail::kRowChunk,
      [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t ri = begin; ri < end; ++ri) {
          detail::analyze_row(a, b, static_cast<index_t>(ri), faults, out);
        }
      });
  detail::reduce_products(out);

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
