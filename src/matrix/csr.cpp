#include "matrix/csr.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>

#include "common/checked_math.h"

namespace speck {

namespace {

/// True if some offset is smaller than its predecessor. An OR-reduction,
/// not a branch per element.
bool any_decreasing(std::span<const offset_t> offsets) {
  std::uint32_t bad = 0;
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    bad |= static_cast<std::uint32_t>(offsets[i] < offsets[i - 1]);
  }
  return bad != 0;
}

/// True if some column lies outside [0, cols). A branch-free OR-reduction
/// (it vectorizes); one unsigned compare covers both bounds.
bool any_out_of_range(std::span<const index_t> col_indices, index_t cols) {
  std::uint32_t bad = 0;
  for (const index_t c : col_indices) {
    bad |= static_cast<std::uint32_t>(static_cast<std::uint32_t>(c) >=
                                      static_cast<std::uint32_t>(cols));
  }
  return bad != 0;
}

/// Appends `src` to `dst` in L1-sized chunks and runs `any_bad` on each
/// chunk (plus the element before it) while it is still in cache, so the
/// copy and the check share one pass over memory. True if any check failed.
template <typename T, typename AnyBad>
bool copy_checked(std::vector<T>& dst, std::span<const T> src, AnyBad&& any_bad) {
  constexpr std::size_t kChunk = 16384 / sizeof(T);
  dst.reserve(src.size());
  bool bad = false;
  for (std::size_t i = 0; i < src.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, src.size() - i);
    dst.insert(dst.end(), src.begin() + static_cast<std::ptrdiff_t>(i),
               src.begin() + static_cast<std::ptrdiff_t>(i + n));
    const std::size_t from = i > 0 ? i - 1 : 0;
    bad |= any_bad(src.subspan(from, i + n - from));
  }
  return bad;
}

}  // namespace

Csr::Csr(index_t rows, index_t cols, std::vector<offset_t> row_offsets,
         std::vector<index_t> col_indices, std::vector<value_t> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  validate();
}

Csr::Csr(index_t rows, index_t cols, std::span<const offset_t> row_offsets,
         std::span<const index_t> col_indices, std::vector<value_t> values)
    : rows_(rows), cols_(cols), values_(std::move(values)) {
  bool bad = copy_checked(row_offsets_, row_offsets, any_decreasing);
  bad |= copy_checked(col_indices_, col_indices,
                      [cols](std::span<const index_t> chunk) {
                        return any_out_of_range(chunk, cols);
                      });
  bad |= rows < 0 || cols < 0 ||
         row_offsets.size() != static_cast<std::size_t>(rows) + 1 ||
         col_indices.size() != values_.size() || row_offsets.front() != 0 ||
         row_offsets.back() != static_cast<offset_t>(col_indices.size());
  // validate() reports the first violated invariant in its fixed order.
  if (bad) validate();
}

void Csr::validate() const {
  SPECK_REQUIRE(rows_ >= 0 && cols_ >= 0, "matrix dimensions must be non-negative");
  SPECK_REQUIRE(row_offsets_.size() ==
                    checked_add<std::size_t>(checked_cast<std::size_t>(rows_), 1),
                "row_offsets must have rows+1 entries");
  SPECK_REQUIRE(col_indices_.size() == values_.size(),
                "col_indices and values must have equal length");
  SPECK_REQUIRE(row_offsets_.front() == 0, "row_offsets must start at 0");
  SPECK_REQUIRE(row_offsets_.back() ==
                    checked_cast<offset_t>(col_indices_.size()),
                "row_offsets must end at nnz");
  SPECK_REQUIRE(!any_decreasing(row_offsets_), "row_offsets must be non-decreasing");
  SPECK_REQUIRE(!any_out_of_range(col_indices_, cols_), "column index out of range");
}

Csr Csr::zeros(index_t rows, index_t cols) {
  return Csr(rows, cols, std::vector<offset_t>(static_cast<std::size_t>(rows) + 1, 0),
             {}, {});
}

Csr Csr::identity(index_t n) {
  std::vector<offset_t> offsets(static_cast<std::size_t>(n) + 1);
  std::iota(offsets.begin(), offsets.end(), offset_t{0});
  std::vector<index_t> cols(static_cast<std::size_t>(n));
  std::iota(cols.begin(), cols.end(), index_t{0});
  std::vector<value_t> vals(static_cast<std::size_t>(n), 1.0);
  return Csr(n, n, std::move(offsets), std::move(cols), std::move(vals));
}

bool Csr::sorted_within_rows() const {
  for (index_t r = 0; r < rows_; ++r) {
    const auto cols = row_cols(r);
    for (std::size_t i = 1; i < cols.size(); ++i) {
      if (cols[i] <= cols[i - 1]) return false;
    }
  }
  return true;
}

void Csr::sort_rows() {
  std::vector<std::size_t> perm;
  for (index_t r = 0; r < rows_; ++r) {
    const auto begin = static_cast<std::size_t>(row_offsets_[static_cast<std::size_t>(r)]);
    const auto len = static_cast<std::size_t>(row_length(r));
    if (len < 2) continue;
    perm.resize(len);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return col_indices_[begin + a] < col_indices_[begin + b];
    });
    std::vector<index_t> sorted_cols(len);
    std::vector<value_t> sorted_vals(len);
    for (std::size_t i = 0; i < len; ++i) {
      sorted_cols[i] = col_indices_[begin + perm[i]];
      sorted_vals[i] = values_[begin + perm[i]];
    }
    std::copy(sorted_cols.begin(), sorted_cols.end(), col_indices_.begin() + begin);
    std::copy(sorted_vals.begin(), sorted_vals.end(), values_.begin() + begin);
  }
}

bool Csr::coalesced() const {
  for (index_t r = 0; r < rows_; ++r) {
    const auto cols = row_cols(r);
    for (std::size_t i = 1; i < cols.size(); ++i) {
      if (cols[i] <= cols[i - 1]) return false;
    }
  }
  return true;
}

std::string Csr::shape_string() const {
  std::ostringstream os;
  os << rows_ << 'x' << cols_ << ", nnz=" << nnz();
  return os.str();
}

}  // namespace speck
