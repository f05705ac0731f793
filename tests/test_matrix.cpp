// Unit tests for src/matrix: CSR/COO containers, ops, Matrix Market IO,
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/csr.h"
#include "matrix/io_mtx.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

namespace speck {
namespace {

Csr small_example() {
  // [[1 0 2]
  //  [0 0 0]
  //  [3 4 0]]
  Coo coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 2, 2.0);
  coo.add(2, 0, 3.0);
  coo.add(2, 1, 4.0);
  return coo.to_csr();
}

TEST(Csr, EmptyDefault) {
  Csr m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(Csr, ZerosAndIdentity) {
  const Csr z = Csr::zeros(4, 7);
  EXPECT_EQ(z.rows(), 4);
  EXPECT_EQ(z.cols(), 7);
  EXPECT_EQ(z.nnz(), 0);

  const Csr i = Csr::identity(5);
  EXPECT_EQ(i.nnz(), 5);
  for (index_t r = 0; r < 5; ++r) {
    ASSERT_EQ(i.row_length(r), 1);
    EXPECT_EQ(i.row_cols(r)[0], r);
    EXPECT_EQ(i.row_vals(r)[0], 1.0);
  }
}

TEST(Csr, RowAccessors) {
  const Csr m = small_example();
  EXPECT_EQ(m.row_length(0), 2);
  EXPECT_EQ(m.row_length(1), 0);
  EXPECT_EQ(m.row_length(2), 2);
  EXPECT_EQ(m.row_cols(2)[1], 1);
  EXPECT_EQ(m.row_vals(2)[1], 4.0);
}

TEST(Csr, ValidationRejectsBadOffsets) {
  EXPECT_THROW(Csr(2, 2, {0, 1}, {0}, {1.0}), InvalidArgument);       // missing offset
  EXPECT_THROW(Csr(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}), InvalidArgument);  // decreasing
  EXPECT_THROW(Csr(2, 2, {0, 1, 2}, {0, 5}, {1.0, 1.0}), InvalidArgument);  // col range
  EXPECT_THROW(Csr(2, 2, {1, 1, 2}, {0, 1}, {1.0, 1.0}), InvalidArgument);  // start != 0
}

/// The BadInput message `make` throws, or "" when it does not throw.
template <typename Make>
std::string bad_input_message(Make&& make) {
  try {
    make();
  } catch (const BadInput& e) {
    return e.what();
  }
  return "";
}

TEST(Csr, SpanCopyRejectsWhatVectorConstructorRejects) {
  struct Case {
    const char* name;
    index_t rows, cols;
    std::vector<offset_t> offsets;
    std::vector<index_t> col_indices;
    std::vector<value_t> values;
  };
  std::vector<Case> cases = {
      {"decreasing offsets", 2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}},
      {"column >= cols", 2, 2, {0, 1, 2}, {0, 2}, {1.0, 1.0}},
      {"negative column", 2, 2, {0, 1, 2}, {-1, 0}, {1.0, 1.0}},
      {"offsets size != rows+1", 2, 2, {0, 1}, {0}, {1.0}},
      {"back != nnz", 2, 2, {0, 1, 1}, {0, 1}, {1.0, 1.0}},
      {"values size mismatch", 2, 2, {0, 1, 2}, {0, 1}, {1.0}},
      {"start != 0", 2, 2, {1, 1, 2}, {0, 1}, {1.0, 1.0}},
      {"negative rows", -1, 2, {0}, {}, {}},
      {"negative cols", 1, -2, {0, 0}, {}, {}},
  };
  // The checked copy works in chunks: put a single violation at and next to
  // every power-of-two position, so it also lands on each chunk boundary.
  constexpr index_t kRows = 9000;
  std::vector<offset_t> identity(kRows + 1);
  std::iota(identity.begin(), identity.end(), offset_t{0});
  for (std::size_t p = 1; p < identity.size(); p *= 2) {
    for (const std::size_t at : {p - 1, p, p + 1}) {
      if (at < 2 || at >= identity.size()) continue;
      Case c{"decreasing offset near a power of two", kRows, 4, identity,
             std::vector<index_t>(kRows, 0), std::vector<value_t>(kRows, 1.0)};
      c.offsets[at] = c.offsets[at - 1] - 1;
      cases.push_back(std::move(c));
      Case wide{"column >= cols near a power of two", kRows, 4, identity,
                std::vector<index_t>(kRows, 3), std::vector<value_t>(kRows, 1.0)};
      wide.col_indices[at] = 4;
      cases.push_back(std::move(wide));
    }
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string expected = bad_input_message(
        [&] { Csr(c.rows, c.cols, c.offsets, c.col_indices, c.values); });
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(bad_input_message([&] {
                Csr(c.rows, c.cols, std::span<const offset_t>(c.offsets),
                    std::span<const index_t>(c.col_indices), c.values);
              }),
              expected);
  }
}

TEST(Csr, SpanCopyEqualsSource) {
  const Csr m = gen::power_law(3000, 3000, 6, 1.8, 200, 41);
  std::vector<value_t> values(m.values().begin(), m.values().end());
  const Csr copy(m.rows(), m.cols(), m.row_offsets(), m.col_indices(),
                 std::move(values));
  EXPECT_TRUE(std::ranges::equal(copy.row_offsets(), m.row_offsets()));
  EXPECT_TRUE(std::ranges::equal(copy.col_indices(), m.col_indices()));
  EXPECT_TRUE(std::ranges::equal(copy.values(), m.values()));
  EXPECT_EQ(copy.shape_string(), m.shape_string());
}

TEST(Csr, CacheHitResultDoesNotAliasThePlan) {
  // C from a plan-cache hit is copied from the cached pattern: scribbling
  // on one hit's columns must leave the next hit intact.
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(400, 8, 5, 43);
  const Csr expected = gustavson_spgemm(a, a);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(sp.multiply(a, a).ok());
  SpGemmResult hit = sp.multiply(a, a);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(sp.last_diagnostics().plan_cache_hit);
  for (index_t& c : hit.c.col_indices_mutable()) c = a.cols() - 1 - c;
  const SpGemmResult next = sp.multiply(a, a);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);
  const auto diff = compare(next.c, expected, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Csr, SortRowsAndSortedCheck) {
  Csr m(2, 4, {0, 3, 4}, {3, 0, 2, 1}, {30.0, 0.0, 20.0, 10.0});
  EXPECT_FALSE(m.sorted_within_rows());
  m.sort_rows();
  EXPECT_TRUE(m.sorted_within_rows());
  EXPECT_EQ(m.row_cols(0)[0], 0);
  EXPECT_EQ(m.row_vals(0)[0], 0.0);
  EXPECT_EQ(m.row_cols(0)[2], 3);
  EXPECT_EQ(m.row_vals(0)[2], 30.0);
}

TEST(Csr, ByteSizeCountsAllArrays) {
  const Csr m = small_example();
  EXPECT_EQ(m.byte_size(), 4 * sizeof(offset_t) + 4 * sizeof(index_t) +
                               4 * sizeof(value_t));
}

TEST(Coo, MergesDuplicates) {
  Coo coo(2, 2);
  coo.add(0, 1, 1.5);
  coo.add(0, 1, 2.5);
  coo.add(1, 0, 1.0);
  const Csr m = coo.to_csr();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 4.0);
}

TEST(Coo, RejectsOutOfRange) {
  Coo coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), InvalidArgument);
  EXPECT_THROW(coo.add(0, -1, 1.0), InvalidArgument);
}

TEST(Coo, ToCsrSortedWithinRows) {
  Coo coo(1, 10);
  coo.add(0, 7, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(0, 5, 1.0);
  const Csr m = coo.to_csr();
  EXPECT_TRUE(m.sorted_within_rows());
}

TEST(Ops, TransposeSmall) {
  const Csr m = small_example();
  const Csr t = transpose(m);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.nnz(), m.nnz());
  // t[0] = {m[0][0], m[2][0]} = {1, 3}
  ASSERT_EQ(t.row_length(0), 2);
  EXPECT_EQ(t.row_vals(0)[0], 1.0);
  EXPECT_EQ(t.row_vals(0)[1], 3.0);
  EXPECT_TRUE(t.sorted_within_rows());
}

TEST(Ops, TransposeInvolution) {
  const Csr m = gen::random_uniform(50, 70, 5, 7);
  const auto diff = compare(transpose(transpose(m)), m);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Ops, CompareDetectsDifferences) {
  const Csr m = small_example();
  EXPECT_FALSE(compare(m, m).has_value());
  EXPECT_TRUE(compare(m, Csr::zeros(3, 3)).has_value());
  EXPECT_TRUE(compare(m, Csr::zeros(3, 4)).has_value());
  const Csr scaled_m = scaled(m, 1.0 + 1e-3);
  EXPECT_TRUE(compare(m, scaled_m, 1e-9).has_value());
  EXPECT_FALSE(compare(m, scaled_m, 1e-2).has_value());
}

TEST(Ops, DenseRoundTrip) {
  const Csr m = gen::random_uniform(20, 30, 4, 99);
  const auto dense = to_dense(m);
  const Csr back = from_dense(20, 30, dense);
  const auto diff = compare(m, back);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Ops, Scaled) {
  const Csr m = small_example();
  const Csr s = scaled(m, -2.0);
  EXPECT_DOUBLE_EQ(s.row_vals(0)[1], -4.0);
}

TEST(IoMtx, RoundTrip) {
  const Csr m = gen::random_uniform(25, 40, 3, 55);
  std::stringstream buffer;
  write_matrix_market(buffer, m);
  const Csr read_back = read_matrix_market(buffer);
  const auto diff = compare(m, read_back);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(IoMtx, SymmetricExpansion) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  const Csr m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 3);  // (1,0), (0,1) mirrored, (2,2) diagonal once
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 5.0);
  EXPECT_DOUBLE_EQ(m.row_vals(1)[0], 5.0);
}

TEST(IoMtx, PatternField) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const Csr m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 1.0);
}

TEST(IoMtx, SkewSymmetric) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const Csr m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], -3.0);
  EXPECT_DOUBLE_EQ(m.row_vals(1)[0], 3.0);
}

TEST(IoMtx, RejectsMalformed) {
  std::stringstream no_banner("1 1 0\n");
  EXPECT_THROW(read_matrix_market(no_banner), InvalidArgument);
  std::stringstream bad_field(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad_field), InvalidArgument);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(truncated), InvalidArgument);
}

TEST(MatrixStats, CountProducts) {
  const Csr i = Csr::identity(10);
  EXPECT_EQ(count_products(i, i), 10);
  const Csr m = small_example();
  // row0 references cols {0,2} -> rows 0 (len 2) and 2 (len 2) => 4
  // row2 references cols {0,1} -> rows 0 (len 2) and 1 (len 0) => 2
  EXPECT_EQ(count_products(m, m), 6);
}

TEST(MatrixStats, AnalyzeMatrix) {
  const Csr m = small_example();
  const MatrixStats s = analyze_matrix(m);
  EXPECT_EQ(s.rows, 3);
  EXPECT_EQ(s.nnz, 4);
  EXPECT_EQ(s.row_lengths.max, 2);
  EXPECT_EQ(s.products, 6);
}

TEST(MatrixStats, AsciiSpyShape) {
  const Csr m = gen::banded(100, 5, 3, 3);
  const std::string spy = ascii_spy(m, 16);
  int newlines = 0;
  for (const char ch : spy) newlines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(newlines, 16);
  // A banded matrix must put ink on the diagonal.
  EXPECT_NE(spy.find_first_not_of(" \n"), std::string::npos);
}

}  // namespace
}  // namespace speck

namespace speck {
namespace {

/// Fuzz-ish robustness: mutated Matrix Market inputs must throw a typed
/// error, never crash or silently succeed.
TEST(IoMtxFuzz, MalformedInputsThrowTypedErrors) {
  const std::vector<std::string> bad_inputs = {
      "",                                                       // empty
      "%%MatrixMarket\n",                                       // truncated banner
      "%%MatrixMarket matrix array real general\n2 2\n1\n2\n",  // array format
      "%%MatrixMarket matrix coordinate real general\n",        // no size line
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",  // row oob
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1.0\n",  // col oob
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",  // short
      "%%MatrixMarket matrix coordinate hermitian general\n1 1 0\n",      // field
      "%%MatrixMarket vector coordinate real general\n1 1 0\n",           // object
  };
  for (const std::string& text : bad_inputs) {
    std::istringstream in(text);
    EXPECT_THROW(read_matrix_market(in), InvalidArgument) << text;
  }
}

TEST(IoMtxFuzz, WhitespaceAndCommentsTolerated) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "%% another\n"
      "3 3 2\n"
      "1 1 1.5\n"
      "3 2 -2.0\n");
  const Csr m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.row_vals(2)[0], -2.0);
}

}  // namespace
}  // namespace speck
