// Tests for the structure-reuse fast path: Speck::plan /
// Speck::multiply_with_plan and the transparent LRU plan cache.
//
// The replay must be *bit-identical* to the full pipeline — same CSR bytes,
// same PassStats counters — at any thread count, including under forced
// spill fault injection. Stale plans (pattern or config changes) must be
// detected and fall back to the full pipeline, never produce wrong values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "common/alloc_counter.h"
#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "ref/masked.h"
#include "speck/speck.h"

namespace speck {
namespace {

/// Same structure, fresh values.
Csr reweighted(const Csr& a, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<offset_t> offsets(a.row_offsets().begin(), a.row_offsets().end());
  std::vector<index_t> cols(a.col_indices().begin(), a.col_indices().end());
  std::vector<value_t> vals(static_cast<std::size_t>(a.nnz()));
  for (auto& v : vals) v = rng.next_double(-2.0, 2.0);
  return Csr(a.rows(), a.cols(), std::move(offsets), std::move(cols),
             std::move(vals));
}

/// Same structure, values drawn from {-0.0, +0.0, -1, 1, 0.5}: products are
/// signed zeros or cancel exactly, so a slot's sign depends on whether its
/// row assigns the first product or adds it into a zeroed window.
Csr signed_zero_values(const Csr& a, std::uint64_t seed) {
  static constexpr value_t kValues[] = {-0.0, -0.0, 0.0, -1.0, 1.0, 0.5};
  Xoshiro256 rng(seed);
  Csr out = a;
  for (value_t& v : out.values_mutable()) v = kValues[rng.next_below(6)];
  return out;
}

/// Bitwise equality: unlike ==, tells -0.0 from +0.0.
bool same_bytes(std::span<const value_t> x, std::span<const value_t> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
}

/// Every PassStats counter must match; hot_path_allocs is checked separately
/// because it depends on workspace warm-up state, not on the computation.
void expect_stats_equal(const PassStats& replay, const PassStats& full,
                        const char* pass) {
  EXPECT_EQ(replay.seconds, full.seconds) << pass;
  EXPECT_EQ(replay.direct_rows, full.direct_rows) << pass;
  EXPECT_EQ(replay.dense_rows, full.dense_rows) << pass;
  EXPECT_EQ(replay.hash_rows, full.hash_rows) << pass;
  EXPECT_EQ(replay.global_hash_blocks, full.global_hash_blocks) << pass;
  EXPECT_EQ(replay.global_pool_bytes, full.global_pool_bytes) << pass;
  EXPECT_EQ(replay.hash_probes, full.hash_probes) << pass;
  EXPECT_EQ(replay.moved_entries, full.moved_entries) << pass;
  EXPECT_EQ(replay.global_inserts, full.global_inserts) << pass;
}

void expect_diagnostics_equal(const SpeckDiagnostics& replay,
                              const SpeckDiagnostics& full) {
  expect_stats_equal(replay.symbolic, full.symbolic, "symbolic");
  expect_stats_equal(replay.numeric, full.numeric, "numeric");
  EXPECT_EQ(replay.symbolic_lb_used, full.symbolic_lb_used);
  EXPECT_EQ(replay.numeric_lb_used, full.numeric_lb_used);
  EXPECT_EQ(replay.products, full.products);
  EXPECT_EQ(replay.radix_sorted_elements, full.radix_sorted_elements);
  EXPECT_EQ(replay.symbolic_blocks, full.symbolic_blocks);
  EXPECT_EQ(replay.numeric_blocks, full.numeric_blocks);
  EXPECT_EQ(replay.wide_keys, full.wide_keys);
}

/// Runs plan + replay on one Speck and a plain full multiply on another
/// (identical config), and checks bitwise-identical CSR output plus equal
/// PassStats counters.
void check_replay_matches_full(SpeckConfig cfg, const Csr& a, const Csr& b) {
  cfg.plan_cache = false;  // isolate the explicit plan API from the cache
  Speck planner(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  Speck reference(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

  const SpGemmResult full = reference.multiply(a, b);
  ASSERT_TRUE(full.ok()) << full.failure_reason;
  const SpeckDiagnostics full_diag = reference.last_diagnostics();

  const SpeckPlan plan = planner.plan(a, b);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const SpGemmResult replay = planner.multiply_with_plan(plan, a, b);
  ASSERT_TRUE(replay.ok()) << replay.failure_reason;

  EXPECT_TRUE(planner.last_diagnostics().plan_used);
  EXPECT_FALSE(planner.last_diagnostics().plan_fallback)
      << planner.last_diagnostics().plan_fallback_reason;

  const auto diff = compare(replay.c, full.c, 0.0);  // bitwise
  EXPECT_FALSE(diff.has_value()) << diff->description;
  expect_diagnostics_equal(planner.last_diagnostics(), full_diag);
  EXPECT_LT(replay.seconds, full.seconds)
      << "replay must skip analysis/symbolic/load-balancing time";
}

TEST(PlanReuse, ReplayBitIdenticalAcrossThreadCounts) {
  const Csr a = gen::power_law(600, 600, 8, 1.9, 150, 2101);
  const Csr b = gen::power_law(600, 600, 7, 1.8, 150, 2103);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    SpeckConfig cfg;
    cfg.host_threads = threads;
    check_replay_matches_full(cfg, a, b);
  }
}

TEST(PlanReuse, ReplayBitIdenticalUnderForcedSpill) {
  const Csr a = gen::power_law(400, 400, 10, 1.7, 200, 2105);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.faults.hash_overflow_after = 8;   // force global-memory fallback
    cfg.faults.estimate_scale = 0.25;     // undersized bins -> spills
    check_replay_matches_full(cfg, a, a);
  }
}

TEST(PlanReuse, SignedZerosReplayBitwiseInEveryRowMethod) {
  // Hash and direct rows assign their first product, dense and masked rows
  // add it into zeros: when every product of a slot is -0.0, the two give
  // different sign bits, so a replay must start each row from the
  // matching zero.
  SpeckConfig hash;
  hash.features.direct_rows = false;
  hash.features.dense_accumulation = false;
  SpeckConfig dense;
  dense.features.direct_rows = false;
  dense.features.block_merge = false;
  dense.max_rows_per_block = 1;
  dense.dense_density_threshold = 1e-9;
  const SpeckConfig direct;  // single-entry rows reference their B row
  const Csr square = gen::random_uniform(300, 300, 6, 2141);
  const Csr single = gen::random_uniform(300, 300, 1, 2143);
  const Csr mask = gen::random_uniform(300, 300, 12, 2145);
  struct Case {
    const char* name;
    SpeckConfig cfg;
    const Csr* a;
    const Csr* mask;
    offset_t PassStats::*method_rows;  ///< null: not pinned
  };
  const Case cases[] = {
      {"hash", hash, &square, nullptr, &PassStats::hash_rows},
      {"dense", dense, &square, nullptr, &PassStats::dense_rows},
      {"direct", direct, &single, nullptr, &PassStats::direct_rows},
      {"masked", SpeckConfig{}, &square, &mask, nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SpeckConfig cfg = c.cfg;
    cfg.plan_cache = false;
    Speck planner(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    const SpeckPlan plan =
        c.mask != nullptr ? planner.plan_masked(*c.a, square, *c.mask)
                          : planner.plan(*c.a, square);
    ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
    if (c.method_rows != nullptr) {
      EXPECT_EQ(plan.diagnostics.numeric.*c.method_rows, c.a->rows())
          << "the config must route every row through the method";
    }
    cfg.mask = c.mask != nullptr ? std::make_shared<const Csr>(*c.mask) : nullptr;
    planner.config().mask = cfg.mask;
    for (const std::uint64_t seed : {2147u, 2149u}) {
      const Csr a = signed_zero_values(*c.a, seed);
      const Csr b = signed_zero_values(square, seed + 1);
      Speck reference(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      const SpGemmResult full = reference.multiply(a, b);
      ASSERT_TRUE(full.ok()) << full.failure_reason;
      std::size_t negative_zeros = 0, positive_zeros = 0;
      for (const value_t v : full.c.values()) {
        if (v == 0.0) ++(std::signbit(v) ? negative_zeros : positive_zeros);
      }
      EXPECT_GT(positive_zeros, 0u);
      if (c.mask == nullptr && c.method_rows != &PassStats::dense_rows) {
        EXPECT_GT(negative_zeros, 0u);
      }

      const SpGemmResult replay = planner.multiply_with_plan(plan, a, b);
      ASSERT_TRUE(replay.ok()) << replay.failure_reason;
      EXPECT_FALSE(planner.last_diagnostics().plan_fallback);
      EXPECT_TRUE(same_bytes(replay.c.values(), full.c.values()));
      std::vector<value_t> into(static_cast<std::size_t>(plan.c_nnz()), 42.0);
      ASSERT_TRUE(planner.replay_values_into(plan, a, b, into).ok());
      EXPECT_TRUE(same_bytes(into, full.c.values()));
    }
  }
}

TEST(PlanReuse, SignedZerosReplayBitwiseAfterHashSpill) {
  // A hash row that spills moves its slots into the global map and keeps
  // accumulating there. New keys in both maps must take their first product
  // as-is, so a slot whose products are all -0.0 stays -0.0 like it does in
  // the replay.
  static constexpr value_t kValues[] = {-0.0, 0.0, -1.0, 1.0};
  const auto unit_values = [](const Csr& m, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    Csr out = m;
    for (value_t& v : out.values_mutable()) v = kValues[rng.next_below(4)];
    return out;
  };
  const Csr pattern = gen::power_law(400, 400, 10, 1.7, 200, 2161);
  SpeckConfig cfg;
  cfg.planning = PlanningMode::kExact;
  cfg.plan_cache = false;
  cfg.faults.hash_overflow_after = 8;
  cfg.faults.scratchpad_scale = 0.25;
  cfg.faults.estimate_scale = 0.25;
  Speck planner(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const SpeckPlan plan = planner.plan(pattern, pattern);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  for (const std::uint64_t seed : {2163u, 2165u}) {
    SCOPED_TRACE(seed);
    const Csr a = unit_values(pattern, seed);
    const Csr b = unit_values(pattern, seed + 1);
    Speck reference(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    const SpGemmResult full = reference.multiply(a, b);
    ASSERT_TRUE(full.ok()) << full.failure_reason;
    EXPECT_GT(reference.last_diagnostics().numeric.global_hash_blocks, 0)
        << "the faults must drive hash rows into the global map";
    std::size_t negative_zeros = 0;
    for (const value_t v : full.c.values()) {
      if (v == 0.0 && std::signbit(v)) ++negative_zeros;
    }
    EXPECT_GT(negative_zeros, 0u);

    const SpGemmResult replay = planner.multiply_with_plan(plan, a, b);
    ASSERT_TRUE(replay.ok()) << replay.failure_reason;
    EXPECT_FALSE(planner.last_diagnostics().plan_fallback);
    EXPECT_TRUE(same_bytes(replay.c.values(), full.c.values()));
  }
}

TEST(PlanReuse, ColumnMapCarriesNothingBetweenMaskedAndUnmaskedReplays) {
  // Both plans replay on this thread and share its column map: a stale
  // entry left by the unmasked plan would let the masked plan keep an
  // off-mask product, one left by the masked plan would misplace a product.
  SpeckConfig cfg;
  cfg.host_threads = 1;
  cfg.plan_cache = false;
  const Csr base = gen::power_law(300, 300, 8, 1.9, 80, 2151);
  const Csr mask = gen::random_uniform(300, 300, 5, 2153);
  Speck plain(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  cfg.mask = std::make_shared<const Csr>(mask);
  Speck masked(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const SpeckPlan plain_plan = plain.plan(base, base);
  const SpeckPlan masked_plan = masked.plan_masked(base, base, mask);
  ASSERT_TRUE(plain_plan.complete && masked_plan.complete);
  ASSERT_LT(masked_plan.c_nnz(), plain_plan.c_nnz())
      << "the mask must drop products";

  std::uint64_t seed = 2155;
  for (const bool masked_first : {false, true}) {
    SCOPED_TRACE(masked_first);
    for (int round = 0; round < 3; ++round) {
      const Csr a = reweighted(base, seed++);
      const Csr b = reweighted(base, seed++);
      const SpGemmResult full = plain.multiply(a, b);
      const SpGemmResult full_masked = masked.multiply(a, b);
      ASSERT_TRUE(full.ok() && full_masked.ok());
      const Csr oracle = masked_spgemm(a, b, mask);
      std::vector<value_t> plain_out(static_cast<std::size_t>(plain_plan.c_nnz()));
      std::vector<value_t> masked_out(static_cast<std::size_t>(masked_plan.c_nnz()));
      for (int step = 0; step < 2; ++step) {
        if ((step == 0) == masked_first) {
          ASSERT_TRUE(masked.replay_values_into(masked_plan, a, b, masked_out).ok());
        } else {
          ASSERT_TRUE(plain.replay_values_into(plain_plan, a, b, plain_out).ok());
        }
      }
      EXPECT_TRUE(same_bytes(plain_out, full.c.values()));
      EXPECT_TRUE(same_bytes(masked_out, full_masked.c.values()));
      EXPECT_TRUE(same_bytes(masked_out, oracle.values()));
    }
  }
}

TEST(PlanReuse, ReplayValuesOnlyAcrossValueChanges) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr base = gen::banded(500, 10, 6, 2107);
  const SpeckPlan plan = sp.plan(base, base);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  for (const std::uint64_t seed : {2109u, 2111u, 2113u}) {
    const Csr a = reweighted(base, seed);
    const Csr b = reweighted(base, seed + 7);
    const SpGemmResult replay = sp.multiply_with_plan(plan, a, b);
    ASSERT_TRUE(replay.ok()) << replay.failure_reason;
    EXPECT_FALSE(sp.last_diagnostics().plan_fallback);
    const auto diff = compare(replay.c, gustavson_spgemm(a, b), 0.0);
    EXPECT_FALSE(diff.has_value())
        << "seed " << seed << ": " << diff->description;
  }
}

TEST(PlanReuse, ReplayHotPathIsAllocationFree) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  SpeckConfig cfg;
  cfg.host_threads = 1;
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::power_law(500, 500, 8, 1.9, 120, 2115);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const SpGemmResult replay = sp.multiply_with_plan(plan, a, a);
  ASSERT_TRUE(replay.ok()) << replay.failure_reason;
  EXPECT_TRUE(sp.last_diagnostics().plan_used);
  EXPECT_EQ(sp.last_diagnostics().numeric.hot_path_allocs, 0u)
      << "the values-only replay must not allocate";
}

TEST(PlanReuse, StalePatternMutationFallsBack) {
  SpeckConfig cfg;
  cfg.validate_inputs = true;  // enables the full pattern-hash check
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::random_uniform(200, 200, 6, 2117);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  // Same dims and nnz, different pattern: move one entry's column while
  // keeping the row sorted. Only the full fingerprint can catch this.
  Csr mutated = a;
  bool changed = false;
  for (index_t r = 0; r < mutated.rows() && !changed; ++r) {
    const auto cols = mutated.row_cols(r);
    if (cols.empty()) continue;
    const index_t last = cols[cols.size() - 1];
    if (last + 1 < mutated.cols()) {
      mutated.col_indices_mutable()[static_cast<std::size_t>(
          mutated.row_offsets()[r + 1] - 1)] = last + 1;
      changed = true;
    }
  }
  ASSERT_TRUE(changed);

  const SpGemmResult result = sp.multiply_with_plan(plan, mutated, mutated);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_TRUE(sp.last_diagnostics().plan_fallback);
  EXPECT_FALSE(sp.last_diagnostics().plan_used);
  EXPECT_FALSE(sp.last_diagnostics().plan_fallback_reason.empty());
  const auto diff = compare(result.c, gustavson_spgemm(mutated, mutated), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, StaleConfigChangeFallsBack) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(200, 200, 6, 2119);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  // A planning-relevant config change invalidates the fingerprint's config
  // hash — caught by the O(1) quick check even without validate_inputs.
  sp.config().dense_density_threshold *= 0.5;
  const SpGemmResult result = sp.multiply_with_plan(plan, a, a);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_TRUE(sp.last_diagnostics().plan_fallback);
  const auto diff = compare(result.c, gustavson_spgemm(a, a), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, DimensionMismatchFallsBack) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(150, 150, 5, 2121);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const Csr smaller = gen::random_uniform(100, 100, 5, 2123);
  const SpGemmResult result = sp.multiply_with_plan(plan, smaller, smaller);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_TRUE(sp.last_diagnostics().plan_fallback);
  const auto diff =
      compare(result.c, gustavson_spgemm(smaller, smaller), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, IncompletePlanFallsBack) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(100, 100, 4, 2125);
  const SpeckPlan empty;  // complete == false
  const SpGemmResult result = sp.multiply_with_plan(empty, a, a);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_TRUE(sp.last_diagnostics().plan_fallback);
  const auto diff = compare(result.c, gustavson_spgemm(a, a), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, TransparentCacheHitsOnThirdIdenticalMultiply) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});  // plan_cache on
  const Csr base = gen::power_law(400, 400, 7, 1.9, 100, 2127);

  // Call 1: new structure — full pipeline. Call 2: structure seen twice —
  // full pipeline that additionally captures a plan. Call 3+: replay.
  const SpGemmResult r1 = sp.multiply(base, base);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit);
  const SpGemmResult r2 = sp.multiply(base, base);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit);
  const SpGemmResult r3 = sp.multiply(base, base);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);
  EXPECT_TRUE(sp.last_diagnostics().plan_used);

  const auto d12 = compare(r1.c, r2.c, 0.0);
  EXPECT_FALSE(d12.has_value()) << d12->description;
  const auto d13 = compare(r1.c, r3.c, 0.0);
  EXPECT_FALSE(d13.has_value()) << d13->description;
  EXPECT_LT(r3.seconds, r1.seconds);

  // Fresh values, same structure: still a hit, still exact.
  const Csr rw = reweighted(base, 2129);
  const SpGemmResult r4 = sp.multiply(rw, rw);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);
  const auto d4 = compare(r4.c, gustavson_spgemm(rw, rw), 0.0);
  EXPECT_FALSE(d4.has_value()) << d4->description;

  // A different structure evicts the slot and runs the full pipeline.
  const Csr other = gen::random_uniform(300, 300, 6, 2131);
  const SpGemmResult r5 = sp.multiply(other, other);
  ASSERT_TRUE(r5.ok());
  EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit);
}

TEST(PlanReuse, CacheDisabledNeverReplays) {
  SpeckConfig cfg;
  cfg.plan_cache = false;
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::random_uniform(200, 200, 5, 2133);
  for (int i = 0; i < 4; ++i) {
    const SpGemmResult r = sp.multiply(a, a);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit) << i;
    EXPECT_FALSE(sp.last_diagnostics().plan_used) << i;
  }
}

TEST(PlanReuse, EmptyAndTinyMatrices) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr z = Csr::zeros(16, 16);
  const SpeckPlan zero_plan = sp.plan(z, z);
  ASSERT_TRUE(zero_plan.complete) << zero_plan.incomplete_reason;
  const SpGemmResult zero = sp.multiply_with_plan(zero_plan, z, z);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.c.nnz(), 0);
  EXPECT_FALSE(sp.last_diagnostics().plan_fallback);

  const Csr one = gen::random_uniform(1, 1, 1, 2135);
  const SpeckPlan one_plan = sp.plan(one, one);
  ASSERT_TRUE(one_plan.complete) << one_plan.incomplete_reason;
  const SpGemmResult r = sp.multiply_with_plan(one_plan, one, one);
  ASSERT_TRUE(r.ok());
  const auto diff = compare(r.c, gustavson_spgemm(one, one), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, PlanReportsByteSizeAndFingerprint) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::power_law(300, 300, 7, 1.8, 90, 2137);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete);
  EXPECT_GT(plan.byte_size(), 0u);
  EXPECT_EQ(plan.fingerprint.a_rows, a.rows());
  EXPECT_EQ(plan.fingerprint.b_cols, a.cols());
  EXPECT_EQ(plan.fingerprint.a_nnz, a.nnz());
  EXPECT_NE(plan.fingerprint.a_pattern_hash, 0u);
  EXPECT_EQ(plan.c_nnz(), plan.fingerprint.a_rows == 0
                              ? 0
                              : plan.c_row_offsets.back());
  EXPECT_EQ(static_cast<std::size_t>(plan.c_nnz()), plan.c_col_indices.size());
}

TEST(PlanReuse, InspectPlusReplayCoversFullMultiply) {
  Speck planner(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(3000, 3000, 10, 1811);
  const SpeckPlan plan = planner.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const SpGemmResult repeated = planner.multiply_with_plan(plan, a, a);
  ASSERT_TRUE(repeated.ok());

  Speck full(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const SpGemmResult whole = full.multiply(a, a);
  ASSERT_TRUE(whole.ok());
  EXPECT_LT(repeated.seconds, whole.seconds)
      << "replay must skip analysis/symbolic/load-balancing time";
  // What a replay skips: the stages before the numeric pass.
  const sim::StageTimeline& t = whole.timeline;
  const double inspect_seconds = t.seconds(sim::Stage::kAnalysis) +
                                 t.seconds(sim::Stage::kSymbolicLoadBalance) +
                                 t.seconds(sim::Stage::kSymbolic) +
                                 t.seconds(sim::Stage::kNumericLoadBalance);
  EXPECT_GT(inspect_seconds, 0.0);
  // The amortized split covers the whole pipeline.
  EXPECT_NEAR(inspect_seconds + repeated.seconds, whole.seconds,
              whole.seconds * 0.25);
}

TEST(PlanReuse, StructuralMismatchFallsBackOnNnzOrDims) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(100, 100, 4, 1813);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const Csr other = gen::random_uniform(100, 100, 5, 1815);  // different nnz
  const Csr smaller = gen::random_uniform(90, 90, 4, 1817);
  for (const Csr* x : {&other, &smaller}) {
    const SpGemmResult result = sp.multiply_with_plan(plan, *x, *x);
    ASSERT_TRUE(result.ok()) << result.failure_reason;
    EXPECT_TRUE(sp.last_diagnostics().plan_fallback);
    const auto diff = compare(result.c, gustavson_spgemm(*x, *x), 0.0);
    EXPECT_FALSE(diff.has_value()) << diff->description;
  }
}

TEST(PlanReuse, PlanRecordsRectangularFingerprint) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::rectangular_lp(60, 500, 6, 1819);
  const Csr b = transpose(a);
  const SpeckPlan plan = sp.plan(a, b);
  EXPECT_EQ(plan.fingerprint.a_rows, 60);
  EXPECT_EQ(plan.fingerprint.a_cols, 500);
  EXPECT_EQ(plan.fingerprint.b_cols, 60);
  EXPECT_EQ(plan.fingerprint.a_nnz, a.nnz());
  EXPECT_EQ(static_cast<index_t>(plan.program.assign_first.size()), a.rows());
}

}  // namespace
}  // namespace speck
