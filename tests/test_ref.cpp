// Tests for the reference layer: the exact Gustavson oracle itself (checked
// against dense arithmetic) and the MKL-like CPU baseline.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "ref/mkl_like.h"

namespace speck {
namespace {

/// Dense reference multiply for small matrices.
Csr dense_multiply(const Csr& a, const Csr& b) {
  const auto da = to_dense(a);
  const auto db = to_dense(b);
  std::vector<value_t> dc(static_cast<std::size_t>(a.rows()) *
                              static_cast<std::size_t>(b.cols()),
                          0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = 0; k < a.cols(); ++k) {
      const value_t av = da[static_cast<std::size_t>(i) * a.cols() + k];
      if (av == 0.0) continue;
      for (index_t j = 0; j < b.cols(); ++j) {
        dc[static_cast<std::size_t>(i) * b.cols() + j] +=
            av * db[static_cast<std::size_t>(k) * b.cols() + j];
      }
    }
  }
  return from_dense(a.rows(), b.cols(), dc);
}

TEST(Gustavson, MatchesDenseReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Csr a = gen::random_uniform(40, 35, 5, seed);
    const Csr b = gen::random_uniform(35, 50, 4, seed + 100);
    const Csr fast = gustavson_spgemm(a, b);
    const Csr slow = dense_multiply(a, b);
    const auto diff = compare(fast, slow, 1e-9);
    EXPECT_FALSE(diff.has_value()) << "seed " << seed << ": " << diff->description;
  }
}

TEST(Gustavson, StructuralCancellationKept) {
  // Values that cancel to zero still count as structural non-zeros —
  // SpGEMM is structural, matching every GPU implementation.
  Coo a_coo(1, 2);
  a_coo.add(0, 0, 1.0);
  a_coo.add(0, 1, -1.0);
  const Csr a = a_coo.to_csr();
  Coo b_coo(2, 1);
  b_coo.add(0, 0, 1.0);
  b_coo.add(1, 0, 1.0);
  const Csr b = b_coo.to_csr();
  const Csr c = gustavson_spgemm(a, b);
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_DOUBLE_EQ(c.row_vals(0)[0], 0.0);
}

TEST(Gustavson, SymbolicMatchesNumeric) {
  const Csr a = gen::power_law(200, 200, 7, 1.9, 60, 901);
  const auto symbolic = gustavson_symbolic(a, a);
  const Csr c = gustavson_spgemm(a, a);
  for (index_t r = 0; r < c.rows(); ++r) {
    EXPECT_EQ(c.row_length(r), symbolic[static_cast<std::size_t>(r)]);
  }
}

TEST(Gustavson, RejectsMismatchedShapes) {
  EXPECT_THROW(gustavson_spgemm(Csr::zeros(3, 4), Csr::zeros(5, 3)), InvalidArgument);
}

TEST(Gustavson, EmptyMatrix) {
  const Csr z = Csr::zeros(16, 16);
  EXPECT_EQ(gustavson_spgemm(z, z).nnz(), 0);
}

TEST(Gustavson, MoreThreadsThanRows) {
  // The oracle splits rows over the global pool; a pool wider than the
  // matrix leaves workers without rows and must not change the result.
  const Csr a = gen::random_uniform(3, 3, 2, 1607);
  set_global_thread_count(1);
  const Csr serial = gustavson_spgemm(a, a);
  set_global_thread_count(8);
  const Csr wide = gustavson_spgemm(a, a);
  set_global_thread_count(0);
  const auto diff = compare(wide, serial, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(ParallelGustavson, WholeTestCorpus) {
  for (const auto& entry : gen::test_corpus()) {
    set_global_thread_count(1);
    const Csr serial = gustavson_spgemm(entry.a, entry.b);
    set_global_thread_count(4);
    const Csr parallel = gustavson_spgemm(entry.a, entry.b);
    const auto diff = compare(parallel, serial, 0.0);
    EXPECT_FALSE(diff.has_value()) << entry.name << ": " << diff->description;
  }
  set_global_thread_count(0);
}

TEST(ParallelGustavson, RejectsBadArguments) {
  // A non-conformable A·A throws on a pooled oracle too, and the pool
  // refuses a negative thread count without replacing the current pool.
  set_global_thread_count(2);
  const Csr a = Csr::zeros(3, 4);
  EXPECT_THROW(gustavson_spgemm(a, a), InvalidArgument);
  EXPECT_THROW(set_global_thread_count(-1), InvalidArgument);
  EXPECT_EQ(global_pool().thread_count(), 2);
  set_global_thread_count(0);
}

TEST(MklLike, ExactResult) {
  MklLikeCpu mkl(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(300, 10, 5, 903);
  const SpGemmResult result = mkl.multiply(a, a);
  ASSERT_TRUE(result.ok());
  const auto diff = compare(result.c, gustavson_spgemm(a, a));
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(MklLike, TimeScalesWithProducts) {
  MklLikeCpu mkl(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr small = gen::random_uniform(1000, 1000, 4, 905);
  const Csr large = gen::random_uniform(1000, 1000, 32, 907);
  const double t_small = mkl.multiply(small, small).seconds;
  const double t_large = mkl.multiply(large, large).seconds;
  const double p_ratio = static_cast<double>(count_products(large, large)) /
                         static_cast<double>(count_products(small, small));
  EXPECT_GT(t_large / t_small, p_ratio / 4.0);
}

TEST(MklLike, HasCallOverheadFloor) {
  MklLikeCpu mkl(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr tiny = gen::random_uniform(10, 10, 2, 909);
  EXPECT_GE(mkl.multiply(tiny, tiny).seconds, 4e-6);
}

}  // namespace
}  // namespace speck
