// Tests for symbolic_estimate: the exact pipeline's prefix up to numeric
// binning, reported without touching the instance's last diagnostics.
#include <gtest/gtest.h>

#include <vector>

#include "gen/generators.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

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
  const SpGemmResult full = speck.multiply(a, a);
  ASSERT_TRUE(full.ok()) << full.failure_reason;
  const offset_t products = speck.last_diagnostics().products;
  const std::size_t launches = speck.last_trace().launches().size();
  const SymbolicEstimate estimate = symbolic_estimate(speck, a, a);
  // The same stages as a full multiply up to numeric binning, charged alike.
  std::vector<index_t> c_row_nnz;
  for (index_t r = 0; r < full.c.rows(); ++r) c_row_nnz.push_back(full.c.row_length(r));
  EXPECT_EQ(estimate.row_nnz, c_row_nnz);
  EXPECT_EQ(estimate.c_nnz, full.c.nnz());
  EXPECT_EQ(estimate.products, products);
  const sim::StageTimeline& t = full.timeline;
  EXPECT_EQ(estimate.seconds, t.seconds(sim::Stage::kAnalysis) +
                                  t.seconds(sim::Stage::kSymbolicLoadBalance) +
                                  t.seconds(sim::Stage::kSymbolic) +
                                  t.seconds(sim::Stage::kNumericLoadBalance));
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
