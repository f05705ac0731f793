// Masked numeric pass: C = (A · B) ∘ mask with GraphBLAS structural
// semantics (docs/performance.md "Masked SpGEMM").
//
// The mask row *is* the candidate pattern of the output row, so the
// symbolic pass is skipped entirely: the numeric pass runs once, straight
// off the row analysis, with per-row staging capped by
// min(products, mask_row_nnz) — a bound the actual output can never exceed,
// so unlike estimated planning there is no fallback re-run. A mask column
// is emitted iff at least one intermediate product lands on it; computed
// zeros are kept, untouched mask entries are dropped (matching the
// masked_spgemm oracle in src/ref/masked.h).
#pragma once

#include <span>
#include <vector>

#include "matrix/csr.h"
#include "speck/global_lb.h"
#include "speck/kernels.h"

namespace speck {

/// Kept for callers that name the masked pass's result type.
using MaskedNumericOutcome = NumericOutcome;

/// Runs the masked numeric pass over the given block plan. `ctx.mask` must
/// be set (an m×n CSR aligned with C); `masked_demand` is the per-row
/// staging cap min(products, mask_row_nnz). Every masked accumulation adds
/// into an implicit zero (0.0 + p on first touch, never an assign), which is
/// what keeps the kernels, the oracle and the values-only replay
/// bit-identical. Output rows emerge in mask-column order — already sorted —
/// so no sort pass follows.
NumericOutcome run_numeric_masked(const KernelContext& ctx, const BinPlan& plan,
                                  std::span<const index_t> masked_demand);

}  // namespace speck
