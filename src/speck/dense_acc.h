// Windowed dense accumulator (paper §4.3 "Dense Rows of C", Fig. 5).
//
// Stores the output row in a dense scratchpad array covering a window of the
// column range. When [col_min, col_max] exceeds the window, multiple passes
// sweep successive windows; per-row cursors into B guarantee each
// intermediate product is visited exactly once across all passes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "common/types.h"
#include "matrix/csr.h"

namespace speck {

/// Reusable buffers for dense_accumulate_row, owned by a per-worker
/// KernelWorkspace. The window arrays are self-cleaning (extraction resets
/// every touched cell), so between calls only capacity growth ever
/// allocates; in the steady state the dense path is allocation-free.
struct DenseScratch {
  std::vector<offset_t> cursor;        ///< next unconsumed element per B row
  std::vector<value_t> window_vals;    ///< dense value window (numeric mode)
  std::vector<std::uint8_t> occupied;  ///< dense occupancy window
  std::vector<index_t> out_cols;       ///< compacted output columns
  std::vector<value_t> out_vals;       ///< compacted output values

  /// Masked dense path (run_numeric_masked): its own window and cursor
  /// buffers so the self-cleaning invariant of `window_vals` / `occupied`
  /// above is never at risk — the masked pass zero-fills its window at the
  /// start of every pass instead. The mask-column emit loop reads only cells
  /// inside the window, so `mask_occupied` needs no tail padding.
  std::vector<offset_t> mask_cursor;        ///< per-A-entry B cursor
  std::vector<value_t> mask_window_vals;    ///< masked dense value window
  std::vector<std::uint8_t> mask_occupied;  ///< masked occupancy window
};

struct DenseRowResult {
  /// Sorted output columns (dense accumulation emits in order; no sort pass).
  std::vector<index_t> cols;
  /// Accumulated values; empty in symbolic mode.
  std::vector<value_t> vals;
  /// Window passes executed (cost model input; 1 when the range fits).
  int passes = 0;
  /// B elements touched (equals the row's product count).
  offset_t element_touches = 0;
  /// Window cells scanned during extraction (cost model input).
  offset_t cells_scanned = 0;
};

/// Zero-copy view of one dense-accumulated row: `cols`/`vals` alias the
/// scratch buffers and stay valid until the scratch's next use.
struct DenseRowView {
  std::span<const index_t> cols;
  std::span<const value_t> vals;
  int passes = 0;
  offset_t element_touches = 0;
  offset_t cells_scanned = 0;
};

/// Accumulates one row of C densely into `scratch` (allocation-free once the
/// scratch has grown to the row's demands). `a_cols`/`a_vals` describe the
/// row of A; `window_columns` is the scratchpad window capacity in columns
/// (bitmask capacity for symbolic mode, value-array capacity for numeric
/// mode). In symbolic mode (`numeric == false`) values are not computed.
/// `simd` (resolved, never kAuto) selects how the extraction scans the
/// occupancy window — 32 bytes per step on the vector backends — without
/// changing the emitted columns, values, or any counter.
DenseRowView dense_accumulate_row(const Csr& b, std::span<const index_t> a_cols,
                                  std::span<const value_t> a_vals, index_t col_min,
                                  index_t col_max, std::size_t window_columns,
                                  bool numeric, DenseScratch& scratch,
                                  SimdBackend simd = SimdBackend::kScalar);

/// Convenience wrapper with internal scratch, returning owned vectors.
DenseRowResult dense_accumulate_row(const Csr& b, std::span<const index_t> a_cols,
                                    std::span<const value_t> a_vals, index_t col_min,
                                    index_t col_max, std::size_t window_columns,
                                    bool numeric);

}  // namespace speck
