// Lightweight O(NNZ_A) row analysis (paper §4.1, Algorithm 1).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "matrix/csr.h"
#include "sim/launch.h"

namespace speck {

/// Per-row and aggregate features extracted by the analysis kernel.
struct RowAnalysis {
  /// Per row of A: total intermediate products (upper bound for C row nnz).
  std::vector<offset_t> products;
  /// Per row of A: length of the longest referenced row of B.
  std::vector<index_t> longest_b_row;
  /// Per row of A: min / max column index over all referenced rows of B
  /// (and thus the column range of the C row). Undefined for empty rows.
  std::vector<index_t> col_min;
  std::vector<index_t> col_max;

  offset_t total_products = 0;
  offset_t max_products = 0;  ///< maximum over the rows of A
  double avg_products = 0.0;  ///< total / rows

  index_t rows = 0;

  /// Allocated host-memory footprint of the per-row arrays (capacity-based,
  /// for SpeckPlan byte accounting).
  std::size_t byte_size() const {
    return products.capacity() * sizeof(offset_t) +
           (longest_b_row.capacity() + col_min.capacity() +
            col_max.capacity()) *
               sizeof(index_t);
  }
};

namespace detail {

/// The analysis of row `r` (Algorithm 1): per entry of A's row, the
/// referenced B row's length and its first/last column. Writes the row's
/// products (perturbed by `faults` when set), longest referenced B row and
/// column range (0 for an empty range) into `out`, and returns the exact,
/// unperturbed product count. analyze_rows and the estimator's exact scan
/// both run it, so their RowAnalysis arrays are identical.
inline offset_t analyze_row(const Csr& a, const Csr& b, index_t r,
                            const FaultInjector* faults, RowAnalysis& out) {
  const std::span<const offset_t> b_offsets = b.row_offsets();
  const std::span<const index_t> b_cols = b.col_indices();
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
  // Fault injection perturbs the *estimate* only: planning consumes it, but
  // symbolic/numeric correctness never depends on it.
  const auto ri = static_cast<std::size_t>(r);
  out.products[ri] = faults != nullptr ? faults->scale_estimate(r, prod_r) : prod_r;
  out.longest_b_row[ri] = longest;
  out.col_min[ri] = cmin == b.cols() ? 0 : cmin;
  out.col_max[ri] = cmax < 0 ? 0 : cmax;
  return prod_r;
}

/// Reduces the per-row products into total, max and average (integer
/// sum/max — independent of the order the rows were scanned in).
inline void reduce_products(RowAnalysis& out) {
  for (const offset_t prod_r : out.products) {
    out.total_products += prod_r;
    out.max_products = std::max(out.max_products, prod_r);
  }
  out.avg_products =
      out.rows > 0 ? static_cast<double>(out.total_products) / out.rows : 0.0;
}

}  // namespace detail

/// Runs the analysis, charging its simulated cost to `launch`. The per-row
/// scan is parallelized over `pool` (the global pool when null); results
/// are bit-identical for every thread count. When `faults` is set, the
/// per-row product estimates are perturbed (deterministically per row) to
/// stress the planning stages; only estimates change, never exact counts.
RowAnalysis analyze_rows(const Csr& a, const Csr& b, sim::Launch& launch,
                         ThreadPool* pool = nullptr,
                         const FaultInjector* faults = nullptr);

}  // namespace speck
