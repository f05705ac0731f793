// End-to-end tests of the output-masked fast path (Speck::multiply_masked):
// correctness against the masked Gustavson oracle, bit-identity across
// thread counts, partition counts and SIMD backends, masked plan replay,
// the transparent cache, empty-mask rows, forced spill and input
// validation. Every comparison uses tolerance 0.0 — the masked kernels,
// the oracle and the replay all add products into an implicit zero in the
// same (A-entry, B-entry) order, so equality is bitwise.
#include <gtest/gtest.h>

#include <memory>

#include "common/alloc_counter.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/ops.h"
#include "ref/masked.h"
#include "speck/speck.h"

namespace speck {
namespace {

Speck make_speck(SpeckConfig config = {}) {
  return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
}

void expect_masked_exact(Speck& speck, const Csr& a, const Csr& b,
                         const Csr& mask, const std::string& label) {
  const SpGemmResult result = speck.multiply_masked(a, b, mask);
  ASSERT_TRUE(result.ok()) << label << ": " << result.failure_reason;
  const Csr expected = masked_spgemm(a, b, mask);
  const auto diff = compare(result.c, expected, 0.0);
  EXPECT_FALSE(diff.has_value()) << label << ": " << diff->description;
  EXPECT_TRUE(result.c.sorted_within_rows()) << label;
  EXPECT_TRUE(speck.last_diagnostics().masked) << label;
}

TEST(MaskedSpeck, MatchesOracleOnGeneratedMatrices) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(200, 200, 6, 3001);
  const Csr b = gen::banded(200, 10, 5, 3003);
  const Csr mask = gen::random_uniform(200, 200, 8, 3005);
  expect_masked_exact(speck, a, b, mask, "uniform x banded");

  const Csr p = gen::power_law(300, 300, 8, 1.8, 90, 3007);
  const Csr pm = gen::random_uniform(300, 300, 12, 3009);
  expect_masked_exact(speck, p, p, pm, "powerlaw");

  const Csr s = gen::skewed_rows(400, 400, 0.02, 200, 3, 3011);
  expect_masked_exact(speck, s, s, s, "skewed self-mask");
}

TEST(MaskedSpeck, TriangleMaskSelfProduct) {
  // C<A> = A*A over an adjacency pattern: the triangle-counting kernel.
  Coo coo(8, 8);
  for (index_t base : {0, 4}) {
    for (index_t i = 0; i < 4; ++i) {
      for (index_t j = 0; j < 4; ++j) {
        if (i != j) coo.add(base + i, base + j, 1.0);
      }
    }
  }
  const Csr k4s = coo.to_csr();
  Speck speck = make_speck();
  expect_masked_exact(speck, k4s, k4s, k4s, "two K4s");
  const SpGemmResult result = speck.multiply_masked(k4s, k4s, k4s);
  ASSERT_TRUE(result.ok());
  value_t sum = 0.0;
  for (const value_t v : result.c.values()) sum += v;
  EXPECT_NEAR(sum / 6.0, 8.0, 1e-12) << "two K4s hold 8 triangles";
}

/// Bit-identity grid: threads {1, 8} x partitions {1, 4} x every available
/// SIMD backend. Each cell must equal the serial oracle bitwise, which
/// makes all cells bitwise-identical to each other.
class MaskedSpeckGrid
    : public ::testing::TestWithParam<std::tuple<int, int, SimdBackend>> {};

TEST_P(MaskedSpeckGrid, BitIdenticalToOracle) {
  const auto [threads, partitions, backend] = GetParam();
  if (!simd::backend_available(backend)) {
    GTEST_SKIP() << "backend not available on this CPU";
  }
  SpeckConfig cfg;
  cfg.host_threads = threads;
  cfg.partitions = partitions;
  cfg.simd_backend = backend;
  Speck speck = make_speck(cfg);
  const Csr a = gen::power_law(500, 500, 7, 1.9, 150, 3013);
  const Csr mask = gen::random_uniform(500, 500, 10, 3015);
  expect_masked_exact(speck, a, a, mask, "grid");
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsPartitionsSimd, MaskedSpeckGrid,
    ::testing::Combine(::testing::Values(1, 8), ::testing::Values(1, 4),
                       ::testing::Values(SimdBackend::kScalar,
                                         SimdBackend::kSse,
                                         SimdBackend::kNeon)));

// A full mask puts a mask column on every cell of every dense window,
// including each window's last cell and the row's col_max: the cells a
// vector gather could read past. Shrunken scratchpads split each row's
// column range into windows of 1 cell, a few cells and a few hundred.
TEST(MaskedSpeck, DenseWindowEdgesMatchOracleOnEveryBackend) {
  constexpr index_t n = 600;
  const Csr a = gen::random_uniform(40, n, 30, 3031);
  const Csr b = gen::random_uniform(n, n, 20, 3033);
  Coo coo(a.rows(), n);
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t c = 0; c < n; ++c) coo.add(r, c, 1.0);
  }
  const Csr full_mask = coo.to_csr();
  for (const SimdBackend backend :
       {SimdBackend::kScalar, SimdBackend::kSse, SimdBackend::kNeon}) {
    if (!simd::backend_available(backend)) continue;
    for (const double scale : {1e-9, 3e-4, 0.02, 1.0}) {
      SCOPED_TRACE(testing::Message() << simd::backend_name(backend)
                                      << " scratchpad x" << scale);
      SpeckConfig cfg;
      cfg.simd_backend = backend;
      cfg.faults.scratchpad_scale = scale;
      Speck speck = make_speck(cfg);
      expect_masked_exact(speck, a, b, full_mask, "full mask");
      EXPECT_GT(speck.last_diagnostics().numeric.dense_rows, 0);
    }
  }
}

TEST(MaskedSpeck, EmptyMaskRowsAndEmptyMask) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(100, 100, 5, 3017);

  // Mask with entries only in even rows: odd C rows must come back empty.
  Coo coo(100, 100);
  for (index_t r = 0; r < 100; r += 2) {
    for (index_t c = 0; c < 100; c += 7) coo.add(r, c, 1.0);
  }
  const Csr even_mask = coo.to_csr();
  expect_masked_exact(speck, a, a, even_mask, "even-row mask");
  const SpGemmResult result = speck.multiply_masked(a, a, even_mask);
  ASSERT_TRUE(result.ok());
  for (index_t r = 1; r < 100; r += 2) {
    EXPECT_EQ(result.c.row_cols(r).size(), 0u) << "row " << r;
  }

  // Fully empty mask: an empty C.
  const SpGemmResult empty = speck.multiply_masked(a, a, Csr::zeros(100, 100));
  ASSERT_TRUE(empty.ok()) << empty.failure_reason;
  EXPECT_EQ(empty.c.nnz(), 0);
}

TEST(MaskedSpeck, ForcedSpillStaysExact) {
  SpeckConfig cfg;
  cfg.faults.hash_overflow_after = 4;  // every accumulator spills early
  Speck speck = make_speck(cfg);
  const Csr a = gen::power_law(300, 300, 8, 1.8, 100, 3019);
  const Csr mask = gen::random_uniform(300, 300, 15, 3021);
  expect_masked_exact(speck, a, a, mask, "forced spill");
  EXPECT_GT(speck.last_diagnostics().numeric.global_hash_blocks, 0)
      << "the fault must actually force spills";
}

TEST(MaskedSpeck, PlanReplayBitIdentical) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(250, 250, 6, 3023);
  const Csr mask = gen::random_uniform(250, 250, 9, 3025);
  const SpeckPlan plan = speck.plan_masked(a, a, mask);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  EXPECT_TRUE(plan.fingerprint.masked);
  EXPECT_NE(plan.fingerprint.mask_pattern_hash, 0u);

  // Replays need the mask configured (it joins the fingerprint check).
  speck.config().mask = std::make_shared<const Csr>(mask);
  const SpGemmResult replay = speck.multiply_with_plan(plan, a, a);
  ASSERT_TRUE(replay.ok()) << replay.failure_reason;
  EXPECT_TRUE(speck.last_diagnostics().plan_used);
  EXPECT_FALSE(speck.last_diagnostics().plan_fallback);
  const auto diff = compare(replay.c, masked_spgemm(a, a, mask), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;

  // Values-only replay into a caller-owned buffer is allocation-free.
  std::vector<value_t> out(static_cast<std::size_t>(plan.c_nnz()));
  SpeckDiagnostics diag;
  const SpGemmResult values = speck.replay_values_into(plan, a, a, out, &diag);
  ASSERT_TRUE(values.ok()) << values.failure_reason;
  EXPECT_EQ(diag.numeric.hot_path_allocs, 0u)
      << "the masked values-only replay must not allocate";
  const std::span<const value_t> expected = replay.c.values();
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], expected[i]) << "value slot " << i;
  }
}

TEST(MaskedSpeck, PlanRejectedWithoutConfiguredMask) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(100, 100, 5, 3027);
  const Csr mask = gen::random_uniform(100, 100, 6, 3029);
  const SpeckPlan plan = speck.plan_masked(a, a, mask);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  // No config mask: the masked plan must not silently replay; the legacy
  // entry falls back to the (unmasked) full pipeline and says why.
  const SpGemmResult result = speck.multiply_with_plan(plan, a, a);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(speck.last_diagnostics().plan_fallback);
  EXPECT_FALSE(speck.last_diagnostics().plan_fallback_reason.empty());
}

TEST(MaskedSpeck, PlanFallbackHonoursConfiguredMask) {
  const Csr a = gen::random_uniform(100, 100, 5, 3027);
  const Csr mask = gen::random_uniform(100, 100, 9, 4001);
  SpeckConfig cfg;
  cfg.mask = std::make_shared<const Csr>(mask);
  Speck speck = make_speck(cfg);
  const SpGemmResult direct = speck.multiply(a, a);
  ASSERT_TRUE(direct.ok()) << direct.failure_reason;
  EXPECT_EQ(direct.c.nnz(), 196);
  // A plan the configured mask rejects — unmasked, or masked under another
  // mask — falls back to the product multiply() computes: (A·A) ∘ mask.
  const SpeckPlan unmasked = speck.plan(a, a);
  const SpeckPlan other_mask =
      speck.plan_masked(a, a, gen::random_uniform(100, 100, 6, 3029));
  for (const SpeckPlan* plan : {&unmasked, &other_mask}) {
    const SpGemmResult result = speck.multiply_with_plan(*plan, a, a);
    ASSERT_TRUE(result.ok()) << result.failure_reason;
    EXPECT_TRUE(speck.last_diagnostics().plan_fallback);
    EXPECT_TRUE(speck.last_diagnostics().masked);
    const auto diff = compare(result.c, direct.c, 0.0);
    EXPECT_FALSE(diff.has_value()) << diff->description;
  }
}

TEST(MaskedSpeck, TransparentCacheHitsOnRepeat) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(200, 200, 6, 3031);
  const Csr mask = gen::random_uniform(200, 200, 8, 3033);
  const Csr expected = masked_spgemm(a, a, mask);
  // 1st sight: full run. 2nd: full run + plan build. 3rd: cache hit.
  for (int i = 0; i < 3; ++i) {
    const SpGemmResult result = speck.multiply_masked(a, a, mask);
    ASSERT_TRUE(result.ok()) << result.failure_reason;
    const auto diff = compare(result.c, expected, 0.0);
    EXPECT_FALSE(diff.has_value()) << "call " << i << ": " << diff->description;
  }
  EXPECT_TRUE(speck.last_diagnostics().plan_cache_hit)
      << "the third identical masked multiply must replay from the cache";
  EXPECT_GE(speck.plan_cache().stats().hits, 1u);
}

TEST(MaskedSpeck, MaskedAndUnmaskedPlansNeverCollide) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(150, 150, 6, 3035);
  const Csr mask = gen::random_uniform(150, 150, 4, 3037);
  // Warm the cache with the unmasked structure, then run masked: the
  // masked multiply must not replay the unmasked plan (or vice versa).
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(speck.multiply(a, a).ok());
  EXPECT_TRUE(speck.last_diagnostics().plan_cache_hit);
  const SpGemmResult masked = speck.multiply_masked(a, a, mask);
  ASSERT_TRUE(masked.ok());
  EXPECT_FALSE(speck.last_diagnostics().plan_cache_hit);
  const auto diff = compare(masked.c, masked_spgemm(a, a, mask), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(MaskedSpeck, ConfigMaskRoutesMultiply) {
  const Csr a = gen::random_uniform(120, 120, 5, 3039);
  const Csr mask = gen::random_uniform(120, 120, 7, 3041);
  SpeckConfig cfg;
  cfg.mask = std::make_shared<const Csr>(mask);
  Speck speck = make_speck(cfg);
  const SpGemmResult result = speck.multiply(a, a);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_TRUE(speck.last_diagnostics().masked);
  const auto diff = compare(result.c, masked_spgemm(a, a, mask), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(MaskedSpeck, RejectsWrongMaskShape) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(50, 50, 4, 3043);
  // Dimension mismatches are caught unconditionally (validate_inputs off).
  speck.config().validate_inputs = false;
  EXPECT_THROW(speck.multiply_masked(a, a, Csr::zeros(50, 49)), BadInput);
  EXPECT_THROW(speck.multiply_masked(a, a, Csr::zeros(49, 50)), BadInput);
}

TEST(MaskedSpeck, RejectsUnsortedMaskUnderValidation) {
  SpeckConfig cfg;
  cfg.validate_inputs = true;
  Speck speck = make_speck(cfg);
  const Csr a = gen::random_uniform(40, 40, 4, 3045);
  Csr mask = gen::random_uniform(40, 40, 6, 3047);
  // Swap two columns in the first row with >= 2 entries.
  for (index_t r = 0; r < mask.rows(); ++r) {
    const offset_t begin = mask.row_offsets()[r];
    const offset_t end = mask.row_offsets()[r + 1];
    if (end - begin >= 2) {
      std::swap(mask.col_indices_mutable()[static_cast<std::size_t>(begin)],
                mask.col_indices_mutable()[static_cast<std::size_t>(begin) + 1]);
      break;
    }
  }
  ASSERT_FALSE(mask.sorted_within_rows());
  EXPECT_THROW(speck.multiply_masked(a, a, mask), BadInput);
}

TEST(MaskedSpeck, EstimatedPlanningModeStaysExact) {
  // The masked pipeline ignores the planning mode (its demand bound is
  // exact by construction), but entering through a kEstimated config must
  // still produce the oracle result bitwise.
  SpeckConfig cfg;
  cfg.planning = PlanningMode::kEstimated;
  Speck speck = make_speck(cfg);
  const Csr a = gen::power_law(250, 250, 7, 1.8, 80, 3049);
  const Csr mask = gen::random_uniform(250, 250, 9, 3051);
  expect_masked_exact(speck, a, a, mask, "estimated config");
}

}  // namespace
}  // namespace speck
