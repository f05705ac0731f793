// Compressed Sparse Row matrix container.
//
// CSR is the input/output format of the paper: values and column indices
// stored row-major / column-minor, with a row-offsets array of size rows+1.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace speck {

/// Owning CSR matrix. Column indices within a row are sorted ascending
/// (the CSR specification the paper holds all methods to, and the property
/// KokkosKernels-like baselines are allowed to violate for their output).
class Csr {
 public:
  Csr() : row_offsets_(1, 0) {}

  /// Takes ownership of pre-built arrays. Validates structure:
  /// offsets monotone, indices in range. Sortedness is NOT required here;
  /// use `sorted_within_rows()` / `sort_rows()` as needed.
  Csr(index_t rows, index_t cols, std::vector<offset_t> row_offsets,
      std::vector<index_t> col_indices, std::vector<value_t> values);

  /// Copies a pattern from spans (e.g. a cached plan's C pattern) and takes
  /// `values`. Checks the same invariants as the vector constructor, folded
  /// into the copy as branch-free reductions; on a violation it throws the
  /// same BadInput message.
  Csr(index_t rows, index_t cols, std::span<const offset_t> row_offsets,
      std::span<const index_t> col_indices, std::vector<value_t> values);

  /// Empty matrix of the given shape (no non-zeros).
  static Csr zeros(index_t rows, index_t cols);

  /// Identity matrix of size n.
  static Csr identity(index_t n);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return static_cast<offset_t>(col_indices_.size()); }

  std::span<const offset_t> row_offsets() const { return row_offsets_; }
  std::span<const index_t> col_indices() const { return col_indices_; }
  std::span<const value_t> values() const { return values_; }

  std::span<index_t> col_indices_mutable() { return col_indices_; }
  std::span<value_t> values_mutable() { return values_; }

  /// Length of row r.
  index_t row_length(index_t r) const {
    return static_cast<index_t>(row_offsets_[static_cast<std::size_t>(r) + 1] -
                                row_offsets_[static_cast<std::size_t>(r)]);
  }

  /// Column indices of row r.
  std::span<const index_t> row_cols(index_t r) const {
    return std::span<const index_t>(col_indices_)
        .subspan(static_cast<std::size_t>(row_offsets_[static_cast<std::size_t>(r)]),
                 static_cast<std::size_t>(row_length(r)));
  }

  /// Values of row r.
  std::span<const value_t> row_vals(index_t r) const {
    return std::span<const value_t>(values_)
        .subspan(static_cast<std::size_t>(row_offsets_[static_cast<std::size_t>(r)]),
                 static_cast<std::size_t>(row_length(r)));
  }

  /// Re-checks every structural invariant (offsets monotone and consistent
  /// with nnz, column indices in range). The constructor establishes these;
  /// this re-validates matrices whose arrays were mutated afterwards
  /// (col_indices_mutable) or that cross an API boundary with
  /// `SpeckConfig::validate_inputs` on. Throws BadInput on violation.
  void validate() const;

  /// True if every row's column indices are strictly increasing.
  bool sorted_within_rows() const;

  /// Sorts every row by column index (stable w.r.t. values). Duplicate
  /// column indices within a row are NOT merged; see `coalesced()`.
  void sort_rows();

  /// True if sorted and free of duplicate column indices within each row.
  bool coalesced() const;

  /// Bytes consumed by the three arrays (as they would be on the device).
  std::size_t byte_size() const {
    return row_offsets_.size() * sizeof(offset_t) +
           col_indices_.size() * sizeof(index_t) + values_.size() * sizeof(value_t);
  }

  /// Human-readable one-line description, e.g. "4096x4096, nnz=81920".
  std::string shape_string() const;

  /// Moves the backing arrays out into the given vectors (replacing their
  /// contents) and resets *this to an empty 0x0 matrix. Lets a caller that
  /// only needs the arrays (e.g. a plan capturing the C pattern of a result
  /// the caller discards) take them without the O(nnz) copy.
  void take_arrays(std::vector<offset_t>& row_offsets,
                   std::vector<index_t>& col_indices,
                   std::vector<value_t>& values) {
    row_offsets = std::move(row_offsets_);
    col_indices = std::move(col_indices_);
    values = std::move(values_);
    rows_ = 0;
    cols_ = 0;
    row_offsets_.assign(1, 0);
    col_indices_.clear();
    values_.clear();
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> row_offsets_;
  std::vector<index_t> col_indices_;
  std::vector<value_t> values_;
};

}  // namespace speck
