// Tests for the inspector-executor API (structure reuse across multiplies).
#include <gtest/gtest.h>

#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/executor.h"

namespace speck {
namespace {

/// Same structure, fresh values.
Csr reweighted(const Csr& a, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<offset_t> offsets(a.row_offsets().begin(), a.row_offsets().end());
  std::vector<index_t> cols(a.col_indices().begin(), a.col_indices().end());
  std::vector<value_t> vals(static_cast<std::size_t>(a.nnz()));
  for (auto& v : vals) v = rng.next_double(-2.0, 2.0);
  return Csr(a.rows(), a.cols(), std::move(offsets), std::move(cols), std::move(vals));
}

TEST(Executor, ExecuteMatchesFullMultiply) {
  SpeckExecutor executor(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::power_law(500, 500, 8, 1.9, 120, 1801);
  const SpeckPlan plan = executor.inspect(a, a);
  const SpGemmResult result = executor.execute(plan, a, a);
  ASSERT_TRUE(result.ok());
  const auto diff = compare(result.c, gustavson_spgemm(a, a));
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Executor, ReusePlanAcrossValueChanges) {
  SpeckExecutor executor(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr base = gen::banded(400, 12, 5, 1803);
  const SpeckPlan plan = executor.inspect(base, base);
  for (const std::uint64_t seed : {1805u, 1807u, 1809u}) {
    const Csr a = reweighted(base, seed);
    const Csr b = reweighted(base, seed + 50);
    const SpGemmResult result = executor.execute(plan, a, b);
    ASSERT_TRUE(result.ok()) << seed;
    const auto diff = compare(result.c, gustavson_spgemm(a, b), 1e-9);
    EXPECT_FALSE(diff.has_value()) << "seed " << seed << ": " << diff->description;
  }
}

TEST(Executor, ExecuteIsCheaperThanFullMultiply) {
  SpeckExecutor executor(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(3000, 3000, 10, 1811);
  const SpeckPlan plan = executor.inspect(a, a);
  const SpGemmResult repeated = executor.execute(plan, a, a);
  ASSERT_TRUE(repeated.ok());

  Speck full(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const SpGemmResult whole = full.multiply(a, a);
  ASSERT_TRUE(whole.ok());
  EXPECT_LT(repeated.seconds, whole.seconds)
      << "execute must skip analysis/symbolic/load-balancing time";
  EXPECT_GT(plan.inspect_seconds, 0.0);
  // The amortized split covers the whole pipeline.
  EXPECT_NEAR(plan.inspect_seconds + repeated.seconds, whole.seconds,
              whole.seconds * 0.25);
}

TEST(Executor, RejectsStructuralMismatch) {
  SpeckExecutor executor(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(100, 100, 4, 1813);
  const SpeckPlan plan = executor.inspect(a, a);
  const Csr other = gen::random_uniform(100, 100, 5, 1815);  // different nnz
  EXPECT_THROW(executor.execute(plan, other, other), InvalidArgument);
  const Csr smaller = gen::random_uniform(90, 90, 4, 1817);
  EXPECT_THROW(executor.execute(plan, smaller, smaller), InvalidArgument);
}

TEST(Executor, PlanRecordsFingerprint) {
  SpeckExecutor executor(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::rectangular_lp(60, 500, 6, 1819);
  const Csr b = transpose(a);
  const SpeckPlan plan = executor.inspect(a, b);
  EXPECT_EQ(plan.fingerprint.a_rows, 60);
  EXPECT_EQ(plan.fingerprint.a_cols, 500);
  EXPECT_EQ(plan.fingerprint.b_cols, 60);
  EXPECT_EQ(plan.fingerprint.a_nnz, a.nnz());
  EXPECT_EQ(static_cast<index_t>(plan.row_nnz.size()), a.rows());
}

TEST(Executor, EmptyMatrixPlan) {
  SpeckExecutor executor(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr z = Csr::zeros(32, 32);
  const SpeckPlan plan = executor.inspect(z, z);
  const SpGemmResult result = executor.execute(plan, z, z);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.c.nnz(), 0);
}

}  // namespace
}  // namespace speck

namespace speck {
namespace {

TEST(SymbolicEstimate, MatchesOracleCounts) {
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::power_law(300, 300, 7, 1.8, 80, 1901);
  const SymbolicEstimate estimate = symbolic_estimate(speck, a, a);
  const auto expected = gustavson_symbolic(a, a);
  ASSERT_EQ(estimate.row_nnz.size(), expected.size());
  offset_t total = 0;
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(estimate.row_nnz[r], expected[r]) << "row " << r;
    total += expected[r];
  }
  EXPECT_EQ(estimate.c_nnz, total);
  EXPECT_GT(estimate.seconds, 0.0);
  EXPECT_GT(estimate.products, estimate.c_nnz);  // compaction >= 1
}

TEST(SymbolicEstimate, MatchesExactPipelinePrefix) {
  SpeckConfig cfg;
  cfg.planning = PlanningMode::kExact;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::power_law(600, 600, 8, 1.8, 150, 1905);
  const SpeckPlan plan = speck.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const std::size_t launches = speck.last_trace().launches().size();
  const SymbolicEstimate estimate = symbolic_estimate(speck, a, a);
  // The same stages as a full multiply up to numeric binning, charged alike.
  EXPECT_EQ(estimate.row_nnz, plan.row_nnz);
  EXPECT_EQ(estimate.c_nnz, plan.c_nnz());
  EXPECT_EQ(estimate.products, plan.analysis.total_products);
  EXPECT_EQ(estimate.seconds, plan.inspect_seconds);
  // The estimate leaves the last multiply's trace alone.
  EXPECT_EQ(speck.last_trace().launches().size(), launches);
}

TEST(SymbolicEstimate, DeviceMemoryBudgetIsTypedFailure) {
  SpeckConfig cfg;
  cfg.faults.memory_budget_bytes = 2048;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::random_uniform(300, 300, 8, 1907);
  EXPECT_THROW(symbolic_estimate(speck, a, a), ResourceExhausted);
}

TEST(SymbolicEstimate, CheaperThanFullMultiply) {
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(3000, 3000, 10, 1903);
  const SymbolicEstimate estimate = symbolic_estimate(speck, a, a);
  const SpGemmResult full = speck.multiply(a, a);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(estimate.seconds, full.seconds);
}

}  // namespace
}  // namespace speck
