// Estimation-based planning (the "estimated" PlanningMode).
//
// Exact planning derives every decision — binning, kernel choice, C
// allocation — from an O(NNZ_A) row analysis plus a full symbolic pass (an
// O(products) hashing pass whose only output is the exact NNZ of every row
// of C). Estimated planning keeps the cheap analysis but replaces the
// symbolic pass with a sampled estimator: per row of A it probes a bounded
// number of referenced B-row lengths, extrapolates the intermediate-product
// count, applies a distinct-column (compression) correction and a
// configurable safety margin, and plans off the resulting per-row NNZ
// *upper estimates*. The numeric pass then discovers the exact
// pattern of C itself: rows are merged into estimate-sized staging slots and
// compacted; a row whose estimate underflowed its true size is re-run
// through an exact fallback pass, so the result is exact (and bit-identical
// to exact-mode planning) regardless of estimator quality. The fallback
// rate is surfaced via PassStats::estimate_underflow_rows.
#pragma once

#include <span>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "matrix/csr.h"
#include "sim/launch.h"
#include "speck/config.h"
#include "speck/kernels.h"
#include "speck/row_analysis.h"

namespace speck {

/// Output of the estimator: an exact RowAnalysis (products, longest B row,
/// tight per-row column ranges — the same O(nnz_A) scan analyze_rows runs,
/// so binning and dense-window selection match the exact pipeline), plus
/// the *sampled* per-row NNZ upper estimates that size the estimated
/// numeric pass's staging slots.
struct RowEstimate {
  RowAnalysis analysis;
  /// Estimated NNZ of each row of C after compression correction and the
  /// safety margin, clamped to [0, b.cols()]. This is the staging capacity
  /// the estimated numeric pass allocates per row.
  std::vector<index_t> row_nnz_estimate;
};

/// Runs the exact lightweight row scan, then samples
/// `cfg.estimator_samples` referenced B-row lengths per row of A for the
/// NNZ estimate (with replacement, stateless per-row PRNG seeded from
/// cfg.estimator_seed — estimates are a pure function of structure, config
/// and seed, independent of the thread count). Rows with at most
/// `estimator_samples` entries use their exact product count instead. The
/// simulated cost is charged to `launch`; `faults` may perturb the product
/// counts (scale_estimate, as in analyze_rows) and the NNZ estimates
/// (scale_sampled_estimate — the forced-underflow test hook).
RowEstimate estimate_rows(const Csr& a, const Csr& b, const SpeckConfig& cfg,
                          sim::Launch& launch, ThreadPool* pool = nullptr,
                          const FaultInjector* faults = nullptr);

/// Runs the numeric pass directly off the NNZ estimates, skipping the
/// symbolic pass entirely. Per row: merges the intermediate products
/// through a column-scatter map into an estimate-sized staging slot,
/// counting the true NNZ even past the slot's capacity; fitting rows are
/// sorted in place and compacted to exact offsets, underflowed rows are
/// recomputed into their exactly-sized final slots by a separate fallback
/// launch. Accumulation order per output column is ascending-A-column —
/// identical to the exact kernels and the values-only replay — and the
/// accumulator semantics per row mirror run_numeric's method selection
/// (evaluated on the *estimates*, exactly as plan capture re-derives it for
/// the replay start bits), so C is bit-identical to exact-mode planning at
/// any thread count. The outcome's row_nnz holds the exact NNZ of every row
/// of C (what the symbolic pass would have reported; stored in
/// SpeckPlan::row_nnz), and stats.estimate_underflow_rows counts the
/// fallback re-runs.
NumericOutcome run_numeric_estimated(const KernelContext& ctx, const BinPlan& plan,
                                     std::span<const index_t> row_nnz_estimate);

}  // namespace speck
