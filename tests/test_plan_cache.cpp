// Tests for the sharded LRU PlanCache: byte-budget eviction order, full-
// fingerprint keying (quick-field collisions must not alias), insert dedup,
// rejection of oversized/incomplete plans, and concurrent get/insert/evict
// hammering — plus the transparent multi-slot cache behavior it gives
// Speck::multiply.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/plan_cache.h"
#include "speck/speck.h"

namespace speck {
namespace {

/// A complete synthetic plan with a distinct full fingerprint and a C
/// pattern padded so byte_size() lands close to `approx_bytes` — precise
/// control over the cache's byte accounting without running the pipeline.
std::shared_ptr<const SpeckPlan> make_plan(std::uint64_t id,
                                           std::size_t approx_bytes) {
  auto plan = std::make_shared<SpeckPlan>();
  plan->complete = true;
  plan->fingerprint.a_rows = 4;
  plan->fingerprint.a_cols = 4;
  plan->fingerprint.b_rows = 4;
  plan->fingerprint.b_cols = 4;
  plan->fingerprint.a_nnz = 4;
  plan->fingerprint.b_nnz = 4;
  plan->fingerprint.config_hash = 7;
  plan->fingerprint.a_pattern_hash = id;
  plan->fingerprint.b_pattern_hash = id ^ 0x9E3779B9u;
  const std::size_t base = plan->byte_size();
  if (approx_bytes > base) {
    // Pad with the dominant pattern array; shrink_to_fit is not needed —
    // byte_size is capacity-based, resize from empty gives capacity == size.
    plan->c_col_indices.resize((approx_bytes - base) / sizeof(index_t));
  }
  return plan;
}

TEST(PlanCache, FindOnEmptyMisses) {
  PlanCache cache(4, 1 << 20);
  const auto probe = make_plan(1, 0);
  EXPECT_EQ(cache.find(probe->fingerprint), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(PlanCache, InsertThenFindReturnsSameInstance) {
  PlanCache cache(4, 1 << 20);
  const auto plan = make_plan(1, 4096);
  const auto retained = cache.insert(plan);
  EXPECT_EQ(retained, plan);
  EXPECT_EQ(cache.find(plan->fingerprint), plan);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), plan->byte_size());
}

TEST(PlanCache, InsertDedupConvergesOnFirstWriter) {
  PlanCache cache(1, 1 << 20);
  const auto first = make_plan(1, 4096);
  const auto duplicate = make_plan(1, 4096);  // same fingerprint, new object
  EXPECT_EQ(cache.insert(first), first);
  EXPECT_EQ(cache.insert(duplicate), first)
      << "a racing insert must converge on the already-cached instance";
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(PlanCache, EvictsInLruOrderUnderByteBudget) {
  const auto p1 = make_plan(1, 8192);
  const auto p2 = make_plan(2, 8192);
  const auto p3 = make_plan(3, 8192);
  // Budget fits exactly two of the three plans; one shard gives one global
  // LRU order.
  PlanCache cache(1, p1->byte_size() + p2->byte_size() + 64);
  cache.insert(p1);
  cache.insert(p2);
  ASSERT_EQ(cache.entries(), 2u);

  // Touch p1: p2 becomes the LRU tail and must be the eviction victim.
  EXPECT_NE(cache.find(p1->fingerprint), nullptr);
  cache.insert(p3);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.find(p1->fingerprint), nullptr) << "recently used, kept";
  EXPECT_EQ(cache.find(p2->fingerprint), nullptr) << "LRU tail, evicted";
  EXPECT_NE(cache.find(p3->fingerprint), nullptr) << "fresh insert, kept";
  EXPECT_LE(cache.bytes(), cache.limit_bytes());
}

TEST(PlanCache, OversizedPlanIsRejectedNotFatal) {
  PlanCache cache(2, 1024);
  const auto huge = make_plan(1, 64 * 1024);
  const auto kept = cache.insert(huge);
  EXPECT_EQ(kept, huge) << "the caller keeps its plan and can still replay";
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
}

TEST(PlanCache, IncompletePlanIsNeverCached) {
  PlanCache cache(2, 1 << 20);
  auto incomplete = std::make_shared<SpeckPlan>();
  incomplete->fingerprint.a_pattern_hash = 5;
  incomplete->fingerprint.b_pattern_hash = 6;
  cache.insert(incomplete);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
}

TEST(PlanCache, QuickFieldCollisionDoesNotAlias) {
  // Same dims, nnz and config hash — only the pattern hashes differ (the
  // satellite's collision case). The cache must treat them as distinct keys.
  PlanCache cache(4, 1 << 20);
  const auto p1 = make_plan(1, 4096);
  const auto p2 = make_plan(2, 4096);
  ASSERT_TRUE(p1->fingerprint.matches_quick(p2->fingerprint));
  ASSERT_FALSE(p1->fingerprint.matches_full(p2->fingerprint));
  cache.insert(p1);
  EXPECT_EQ(cache.find(p2->fingerprint), nullptr)
      << "a quick-field collision must not serve the other pattern's plan";
  cache.insert(p2);
  EXPECT_EQ(cache.find(p1->fingerprint), p1);
  EXPECT_EQ(cache.find(p2->fingerprint), p2);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(PlanCache, ClearDropsEntriesKeepsCounters) {
  PlanCache cache(4, 1 << 20);
  cache.insert(make_plan(1, 4096));
  cache.insert(make_plan(2, 4096));
  const std::uint64_t insertions = cache.stats().insertions;
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().insertions, insertions);
}

TEST(PlanCacheStress, ConcurrentGetInsertEvictFromSixteenThreads) {
  // 16 threads hammer a deliberately tight cache (continuous eviction) over
  // a pool of 32 distinct fingerprints. Correctness bar: every hit returns
  // the plan for the requested fingerprint, and the cache's accounting
  // stays consistent.
  constexpr int kThreads = 16;
  constexpr int kPlans = 32;
  constexpr int kIterations = 400;

  std::vector<std::shared_ptr<const SpeckPlan>> plans;
  for (int i = 0; i < kPlans; ++i) {
    plans.push_back(make_plan(static_cast<std::uint64_t>(i) + 1, 16 * 1024));
  }
  // Budget for roughly a quarter of the pool.
  PlanCache cache(4, 8 * plans.front()->byte_size());

  std::atomic<std::uint64_t> wrong_plan{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0xC0FFEE + static_cast<std::uint64_t>(t);
      for (int i = 0; i < kIterations; ++i) {
        const auto pick =
            static_cast<std::size_t>(splitmix64(state) % kPlans);
        const auto& want = plans[pick];
        std::shared_ptr<const SpeckPlan> got = cache.find(want->fingerprint);
        if (got == nullptr) {
          got = cache.insert(want);
        }
        if (got == nullptr ||
            !got->fingerprint.matches_full(want->fingerprint)) {
          wrong_plan.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(wrong_plan.load(), 0u);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.entries());
  EXPECT_EQ(stats.bytes, cache.bytes());
  EXPECT_LE(stats.bytes, cache.limit_bytes());
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

/// Two matrices with identical dims, nnz and config (quick-field collision)
/// but different sparsity patterns.
struct CollisionPair {
  Csr a;
  Csr b;
};

CollisionPair collision_pair() {
  // 4x4, 4 nnz each, different patterns, same values everywhere.
  const std::vector<value_t> vals{1.0, 2.0, 3.0, 4.0};
  Csr a(4, 4, {0, 2, 3, 4, 4}, {0, 2, 1, 3}, vals);
  Csr b(4, 4, {0, 1, 2, 3, 4}, {1, 2, 3, 0}, vals);
  return {std::move(a), std::move(b)};
}

TEST(TransparentPlanCache, CollisionPatternsServedCorrectly) {
  // End-to-end through Speck::multiply, with validate_inputs on and off:
  // after warming the cache on pattern A, pattern B (same dims/nnz/config
  // hash) must not replay A's plan — its product must match the reference.
  for (const bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validate_inputs=on" : "validate_inputs=off");
    SpeckConfig cfg;
    cfg.validate_inputs = validate;
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    const CollisionPair pair = collision_pair();
    ASSERT_TRUE(plan_fingerprint(pair.a, pair.a, cfg, false)
                    .matches_quick(plan_fingerprint(pair.b, pair.b, cfg, false)));

    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(sp.multiply(pair.a, pair.a).ok());
    }
    EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);

    const SpGemmResult r = sp.multiply(pair.b, pair.b);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit)
        << "quick-field collision must miss, not replay the wrong pattern";
    const auto diff = compare(r.c, gustavson_spgemm(pair.b, pair.b), 0.0);
    EXPECT_FALSE(diff.has_value()) << diff->description;
  }
}

TEST(TransparentPlanCache, MultiplePatternsStayWarm) {
  // The single-slot cache this replaces forgot pattern A the moment B
  // appeared. Now A, A, A (hit) then B, B, B (hit) then A again must hit
  // immediately — both plans live in the cache.
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(300, 6, 4, 901);
  const Csr b = gen::power_law(300, 300, 5, 1.8, 60, 903);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sp.multiply(a, a).ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sp.multiply(b, b).ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);

  const SpGemmResult back = sp.multiply(a, a);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit)
      << "pattern A must still be cached after serving pattern B";
  EXPECT_EQ(sp.plan_cache().entries(), 2u);
  const auto diff = compare(back.c, gustavson_spgemm(a, a), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

/// Byte size of the plan the transparent cache builds for (x, x).
std::size_t cached_plan_bytes(const Csr& x) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(sp.multiply(x, x).ok());
  const std::shared_ptr<const SpeckPlan> plan =
      sp.plan_cache().find(plan_fingerprint(x, x, sp.config()));
  EXPECT_NE(plan, nullptr);
  return plan != nullptr ? plan->byte_size() : 0;
}

TEST(TransparentPlanCache, ByteBudgetEvictsLeastRecentlyUsed) {
  const Csr a = gen::banded(300, 6, 4, 901);
  const Csr b = gen::banded(300, 6, 4, 905);
  const Csr c = gen::banded(300, 6, 4, 907);
  const std::size_t bytes_a = cached_plan_bytes(a);
  const std::size_t bytes_b = cached_plan_bytes(b);
  const std::size_t bytes_c = cached_plan_bytes(c);
  // Room for any two of the three plans, never for all three.
  const std::size_t smallest = std::min({bytes_a, bytes_b, bytes_c});
  SpeckConfig cfg;
  cfg.plan_cache_limit_bytes = bytes_a + bytes_b + bytes_c - smallest / 2;
  for (const Csr* x : {&a, &b, &c}) {
    ASSERT_LE(estimate_plan_bytes(*x, *x), cfg.plan_cache_limit_bytes);
  }
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

  for (int i = 0; i < 2; ++i) ASSERT_TRUE(sp.multiply(a, a).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(sp.multiply(b, b).ok());
  ASSERT_EQ(sp.plan_cache().entries(), 2u);
  // A hit on A makes B the least recently used plan.
  ASSERT_TRUE(sp.multiply(a, a).ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);

  for (int i = 0; i < 2; ++i) ASSERT_TRUE(sp.multiply(c, c).ok());
  const PlanCacheStats stats = sp.plan_cache().stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.rejected_inserts, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, cfg.plan_cache_limit_bytes);
  PlanCache& cache = sp.plan_cache();
  EXPECT_NE(cache.find(plan_fingerprint(a, a, cfg)), nullptr);
  EXPECT_EQ(cache.find(plan_fingerprint(b, b, cfg)), nullptr)
      << "the least recently used plan must be the one evicted";
  EXPECT_NE(cache.find(plan_fingerprint(c, c, cfg)), nullptr);
}

TEST(TransparentPlanCache, StructureOverBudgetIsNeverPlanned) {
  const Csr a = gen::power_law(300, 300, 5, 1.8, 60, 903);
  SpeckConfig cfg;
  cfg.plan_cache_limit_bytes = estimate_plan_bytes(a, a) - 1;
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr expected = gustavson_spgemm(a, a);
  for (int i = 0; i < 4; ++i) {
    const SpGemmResult r = sp.multiply(a, a);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit) << i;
    EXPECT_FALSE(sp.last_diagnostics().plan_used) << i;
    const auto diff = compare(r.c, expected, 0.0);
    EXPECT_FALSE(diff.has_value()) << diff->description;
  }
  // plan_worth_caching refuses before any capture: nothing was offered to
  // the cache, so nothing was rejected either.
  const PlanCacheStats stats = sp.plan_cache().stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.rejected_inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(PlanFingerprint, OperandPassedTwiceMatchesDistinctCopy) {
  // A * A hashes its operand once; the key must equal the one built from
  // a separate copy, or iterate-style callers would never hit.
  const SpeckConfig cfg;
  const Csr a = gen::power_law(500, 500, 6, 1.8, 80, 911);
  const Csr copy = a;
  const PlanFingerprint same = plan_fingerprint(a, a, cfg);
  const PlanFingerprint distinct = plan_fingerprint(a, copy, cfg);
  EXPECT_TRUE(same.matches_full(distinct));
  EXPECT_EQ(same.a_pattern_hash, distinct.b_pattern_hash);
  EXPECT_EQ(same.b_pattern_hash, csr_pattern_hash(a));
}

TEST(PlanFingerprint, MaskedSelfProductMatchesDistinctCopies) {
  // The (l, l, l) triangle-count key reuses one hash for all three sides;
  // it must equal the key from three distinct copies, and a mask that is
  // only B must reuse B's hash.
  const SpeckConfig cfg;
  const Csr l = gen::power_law(400, 400, 5, 1.8, 60, 913);
  const Csr l2 = l;
  const Csr l3 = l;
  const Csr other = gen::banded(400, 6, 4, 915);
  const PlanFingerprint self = plan_fingerprint(l, l, &l, cfg);
  const PlanFingerprint copies = plan_fingerprint(l, l2, &l3, cfg);
  EXPECT_TRUE(self.masked);
  EXPECT_TRUE(self.matches_full(copies));
  EXPECT_EQ(self.mask_pattern_hash, copies.mask_pattern_hash);
  EXPECT_TRUE(plan_fingerprint(other, l, &l, cfg)
                  .matches_full(plan_fingerprint(other, l2, &l3, cfg)));
  EXPECT_FALSE(plan_fingerprint(other, l, &l, cfg)
                   .matches_full(plan_fingerprint(other, l, &other, cfg)));
}

/// A pattern with `nnz` entries over 1 + nnz / 3 rows; row lengths and
/// columns drawn from `seed`.
Csr sweep_pattern(int nnz, std::uint64_t seed) {
  const int rows = 1 + nnz / 3;
  constexpr index_t kCols = 64;
  std::vector<offset_t> offsets(static_cast<std::size_t>(rows) + 1, 0);
  std::uint64_t state = seed;
  for (int e = 0; e < nnz; ++e) {
    ++offsets[1 + splitmix64(state) % static_cast<std::uint64_t>(rows)];
  }
  for (std::size_t r = 1; r < offsets.size(); ++r) offsets[r] += offsets[r - 1];
  std::vector<index_t> cols(static_cast<std::size_t>(nnz));
  for (index_t& c : cols) c = static_cast<index_t>(splitmix64(state) % kCols);
  return Csr(rows, kCols, std::move(offsets), std::move(cols),
             std::vector<value_t>(static_cast<std::size_t>(nnz), 1.0));
}

TEST(CsrPatternHash, EverySingleChangeMovesTheHash) {
  // nnz 0..130 puts every tail length of the 64-byte step under both
  // arrays (4-byte columns, 8-byte offsets over 1..44 rows).
  for (int nnz = 0; nnz <= 130; ++nnz) {
    SCOPED_TRACE("nnz=" + std::to_string(nnz));
    const Csr base = sweep_pattern(nnz, 917 + static_cast<std::uint64_t>(nnz));
    const std::uint64_t h = csr_pattern_hash(base);
    for (std::size_t i = 0; i < static_cast<std::size_t>(nnz); ++i) {
      Csr changed = base;
      index_t& c = changed.col_indices_mutable()[i];
      c = (c + 1) % base.cols();
      EXPECT_NE(csr_pattern_hash(changed), h) << "column " << i;
    }
    // Every valid value of each interior offset (the end offsets are pinned
    // by validity). A change by one moves one entry to the adjacent row.
    const std::span<const offset_t> offsets = base.row_offsets();
    const std::vector<index_t> cols(base.col_indices().begin(),
                                    base.col_indices().end());
    const std::vector<value_t> vals(base.values().begin(), base.values().end());
    for (std::size_t r = 1; r + 1 < offsets.size(); ++r) {
      for (offset_t moved = offsets[r - 1]; moved <= offsets[r + 1]; ++moved) {
        if (moved == offsets[r]) continue;
        std::vector<offset_t> o(offsets.begin(), offsets.end());
        o[r] = moved;
        const Csr changed(base.rows(), base.cols(), std::move(o), cols, vals);
        EXPECT_NE(csr_pattern_hash(changed), h)
            << "offset " << r << " set to " << moved;
      }
    }
  }
}

}  // namespace
}  // namespace speck
