// SIMD backend equivalence tests.
//
// The contract (src/common/simd.h): a backend changes only how fast the hot
// loops run, never what they compute. These tests pin that down at three
// levels — the raw primitives, the group-probing containers at boundary
// capacities, and the full pipeline (CSR bytes, simulated seconds, every
// PassStats counter) at 1 and 8 threads, including forced-spill fault
// injection and plan replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/simd.h"
#include "common/sorting.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "speck/dense_acc.h"
#include "speck/flat_map.h"
#include "speck/hash_map.h"
#include "speck/speck.h"

namespace speck {
namespace {

/// Vector backends this machine can actually execute (often just one).
std::vector<SimdBackend> vector_backends() {
  std::vector<SimdBackend> out;
  for (const SimdBackend b : {SimdBackend::kSse, SimdBackend::kNeon}) {
    if (simd::backend_available(b)) out.push_back(b);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(SimdPrimitives, RadixSortOffsetsBitIdenticalAcrossBackends) {
  // A vector backend turns on the radix sort's scatter prefetch; the
  // permutation must stay identical on every backend.
  Xoshiro256 rng(998);
  std::vector<std::uint32_t> keys(513);
  std::vector<std::uint32_t> vals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::uint32_t>(rng.next_u64());
    vals[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> want_keys = keys;
  std::vector<std::uint32_t> want_vals = vals;
  radix_sort_pairs(want_keys, want_vals, SimdBackend::kScalar);
  for (const SimdBackend b : vector_backends()) {
    std::vector<std::uint32_t> got_keys = keys;
    std::vector<std::uint32_t> got_vals = vals;
    radix_sort_pairs(got_keys, got_vals, b);
    EXPECT_EQ(got_keys, want_keys) << simd::backend_name(b);
    EXPECT_EQ(got_vals, want_vals) << simd::backend_name(b);
  }
}

TEST(SimdPrimitives, NonzeroMask32AgreesWithScalar) {
  Xoshiro256 rng(992);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint8_t bytes[simd::kChunkWidth];
    for (auto& byte : bytes) {
      byte = (rng.next_u64() & 3) == 0 ? static_cast<std::uint8_t>(rng.next_u64())
                                       : std::uint8_t{0};
    }
    const std::uint32_t want = simd::nonzero_mask32_scalar(bytes);
    for (const SimdBackend b : vector_backends()) {
      EXPECT_EQ(simd::nonzero_mask32(bytes, b), want)
          << "backend " << simd::backend_name(b) << " trial " << trial;
    }
  }
}

TEST(SimdPrimitives, GroupMasks16AgreesWithScalar) {
  Xoshiro256 rng(993);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint8_t group[simd::kGroupWidth];
    for (auto& byte : group) {
      const auto roll = static_cast<std::uint8_t>(rng.next_u64() % 6);
      byte = roll < 3 ? roll : (roll == 3 ? std::uint8_t{0x80} : std::uint8_t{0xFF});
    }
    const auto tag = static_cast<std::uint8_t>(rng.next_u64() % 6);
    const simd::GroupMasks want =
        simd::group_masks16_scalar(group, tag, 0x80);
    // The scalar reference against a lane-by-lane compare.
    std::uint32_t tag_lanes = 0;
    std::uint32_t empty_lanes = 0;
    for (std::size_t i = 0; i < simd::kGroupWidth; ++i) {
      tag_lanes |= static_cast<std::uint32_t>(group[i] == tag) << i;
      empty_lanes |= static_cast<std::uint32_t>(group[i] == 0x80) << i;
    }
    EXPECT_EQ(want.tag_mask, tag_lanes);
    EXPECT_EQ(want.empty_mask, empty_lanes);
    for (const SimdBackend b : vector_backends()) {
      const simd::GroupMasks got = simd::group_masks16(group, tag, 0x80, b);
      EXPECT_EQ(got.tag_mask, want.tag_mask)
          << "backend " << simd::backend_name(b) << " trial " << trial;
      EXPECT_EQ(got.empty_mask, want.empty_mask)
          << "backend " << simd::backend_name(b) << " trial " << trial;
    }
  }
}

TEST(SimdPrimitives, OccupiedMask16AgreesWithScalar) {
  Xoshiro256 rng(994);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint8_t group[simd::kGroupWidth];
    std::uint32_t want = 0;
    for (std::size_t i = 0; i < simd::kGroupWidth; ++i) {
      // Mix of tags (occupied), empties and sentinels.
      const auto roll = static_cast<std::uint8_t>(rng.next_u64() % 4);
      group[i] = roll < 2 ? static_cast<std::uint8_t>(rng.next_u64() & 0x7F)
                          : (roll == 2 ? std::uint8_t{0x80} : std::uint8_t{0xFF});
      want |= static_cast<std::uint32_t>(group[i] < 0x80) << i;
    }
    EXPECT_EQ(simd::occupied_mask16_scalar(group), want) << "trial " << trial;
    for (const SimdBackend b : vector_backends()) {
      EXPECT_EQ(simd::occupied_mask16(group, b), want)
          << "backend " << simd::backend_name(b) << " trial " << trial;
    }
  }
}

TEST(SimdPrimitives, MaskEdgeCases) {
  std::uint8_t all_zero[simd::kChunkWidth] = {};
  std::uint8_t all_set[simd::kChunkWidth];
  for (auto& byte : all_set) byte = 0xFF;
  std::uint8_t group_same[simd::kGroupWidth];
  for (auto& byte : group_same) byte = 0x42;
  for (const SimdBackend b : vector_backends()) {
    EXPECT_EQ(simd::nonzero_mask32(all_zero, b), 0u);
    EXPECT_EQ(simd::nonzero_mask32(all_set, b), 0xFFFFFFFFu);
    EXPECT_EQ(simd::group_masks16(group_same, 0x42, 0x80, b).tag_mask, 0xFFFFu);
    EXPECT_EQ(simd::group_masks16(group_same, 0x43, 0x80, b).tag_mask, 0u);
    // 0x7F is the largest occupied control byte; 0x80/0xFF are free.
    std::uint8_t boundary[simd::kGroupWidth];
    for (std::size_t i = 0; i < simd::kGroupWidth; ++i) {
      boundary[i] = i % 3 == 0 ? std::uint8_t{0x7F}
                               : (i % 3 == 1 ? std::uint8_t{0x80} : std::uint8_t{0xFF});
    }
    EXPECT_EQ(simd::occupied_mask16(boundary, b),
              simd::occupied_mask16_scalar(boundary));
    const simd::GroupMasks gm = simd::group_masks16(boundary, 0x7F, 0x80, b);
    EXPECT_EQ(gm.tag_mask, 0x9249u);    // lanes 0, 3, ..., 15 hold 0x7F
    EXPECT_EQ(gm.empty_mask, 0x2492u);  // lanes 1, 4, ..., 13 hold 0x80
  }
  EXPECT_EQ(simd::lowest_bit(1u), 0u);
  EXPECT_EQ(simd::lowest_bit(0x8000u), 15u);
  EXPECT_EQ(simd::lowest_bit(0x80000000u), 31u);
}

TEST(SimdDispatch, ParseAndNames) {
  EXPECT_EQ(simd::parse_backend("auto"), SimdBackend::kAuto);
  EXPECT_EQ(simd::parse_backend("scalar"), SimdBackend::kScalar);
  EXPECT_EQ(simd::parse_backend("SSE"), SimdBackend::kSse);
  EXPECT_EQ(simd::parse_backend("neon"), SimdBackend::kNeon);
  EXPECT_FALSE(simd::parse_backend("avx2").has_value());
  EXPECT_FALSE(simd::parse_backend("avx512").has_value());
  EXPECT_FALSE(simd::parse_backend("").has_value());
  for (const SimdBackend b : {SimdBackend::kAuto, SimdBackend::kScalar,
                              SimdBackend::kSse, SimdBackend::kNeon}) {
    EXPECT_EQ(simd::parse_backend(simd::backend_name(b)), b);
  }
}

TEST(SimdDispatch, ResolveNeverReturnsAuto) {
  const SimdBackend resolved = simd::resolve_backend(SimdBackend::kAuto);
  EXPECT_NE(resolved, SimdBackend::kAuto);
  EXPECT_TRUE(simd::backend_available(resolved));
  EXPECT_EQ(simd::resolve_backend(SimdBackend::kScalar), SimdBackend::kScalar);
  EXPECT_TRUE(simd::backend_available(SimdBackend::kScalar));
  EXPECT_TRUE(simd::backend_available(SimdBackend::kAuto));
}

TEST(SimdDispatch, ResolveFollowsEnvironmentAndIgnoresUnknownNames) {
#if !defined(_WIN32)
  const char* saved = std::getenv("SPECK_SIMD");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("SPECK_SIMD", "scalar", 1);
  EXPECT_EQ(simd::resolve_backend(SimdBackend::kAuto), SimdBackend::kScalar);
  ::setenv("SPECK_SIMD", "auto", 1);
  EXPECT_EQ(simd::resolve_backend(SimdBackend::kAuto), simd::detected_backend());
  // A retired or unknown name warns once on stderr and falls back to the
  // detected backend instead of aborting the run.
  ::setenv("SPECK_SIMD", "avx2", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(simd::resolve_backend(SimdBackend::kAuto), simd::detected_backend());
  EXPECT_EQ(simd::resolve_backend(SimdBackend::kAuto), simd::detected_backend());
  const std::string warning = testing::internal::GetCapturedStderr();
  // The notice is process-wide: a stale SPECK_SIMD this process started
  // with has already used it up.
  const std::optional<SimdBackend> inherited =
      saved != nullptr ? simd::parse_backend(saved_value) : SimdBackend::kAuto;
  if (inherited.has_value() && simd::backend_available(*inherited)) {
    EXPECT_NE(warning.find("ignoring SPECK_SIMD='avx2'"), std::string::npos)
        << warning;
  }
  EXPECT_EQ(warning.find("SPECK_SIMD", warning.find("SPECK_SIMD") + 1),
            std::string::npos)
      << "the notice must print once: " << warning;
  // An explicit config choice ignores the environment.
  EXPECT_EQ(simd::resolve_backend(SimdBackend::kScalar), SimdBackend::kScalar);
  if (saved != nullptr) {
    ::setenv("SPECK_SIMD", saved_value.c_str(), 1);
  } else {
    ::unsetenv("SPECK_SIMD");
  }
#else
  GTEST_SKIP() << "setenv is POSIX-only";
#endif
}

// ---------------------------------------------------------------------------
// Group-probing containers: scalar vs vector at boundary capacities
// ---------------------------------------------------------------------------

/// Capacities around every group boundary the probe loops special-case:
/// sub-group, exact group, one over, wrap-around re-scan territory.
const std::size_t kBoundaryCapacities[] = {1,  2,  15, 16,  17,  31, 32,
                                           33, 47, 48, 100, 255, 256, 1000};

TEST(SimdHashMap, InsertEquivalentToScalarAtBoundaryCapacities) {
  for (const SimdBackend backend : vector_backends()) {
    for (const std::size_t capacity : kBoundaryCapacities) {
      SCOPED_TRACE(testing::Message() << simd::backend_name(backend)
                                      << " capacity " << capacity);
      Xoshiro256 rng(7000 + capacity);
      DeviceHashMap scalar_map(capacity);
      DeviceHashMap vector_map(capacity);
      vector_map.set_backend(backend);
      // Overfill on purpose: the overflow path must also match. Reinsert
      // some keys so the found-after-collision path is exercised.
      std::vector<key64_t> keys;
      for (std::size_t i = 0; i < capacity + 4; ++i) {
        keys.push_back(rng.next_u64() % (capacity * 4 + 16));
      }
      keys.insert(keys.end(), keys.begin(), keys.begin() + keys.size() / 2);
      for (const key64_t k : keys) {
        EXPECT_EQ(scalar_map.insert_key(k), vector_map.insert_key(k));
        ASSERT_EQ(scalar_map.probes(), vector_map.probes()) << "key " << k;
      }
      EXPECT_EQ(scalar_map.size(), vector_map.size());
      EXPECT_EQ(scalar_map.overflowed(), vector_map.overflowed());
      const auto scalar_entries = scalar_map.extract();
      const auto vector_entries = vector_map.extract();
      ASSERT_EQ(scalar_entries.size(), vector_entries.size());
      for (std::size_t i = 0; i < scalar_entries.size(); ++i) {
        EXPECT_EQ(scalar_entries[i].key, vector_entries[i].key)
            << "slot order must be identical at entry " << i;
      }
    }
  }
}

TEST(SimdHashMap, AccumulateEquivalentAcrossReconfigureCycles) {
  for (const SimdBackend backend : vector_backends()) {
    Xoshiro256 rng(7400);
    DeviceHashMap scalar_map;
    DeviceHashMap vector_map;
    vector_map.set_backend(backend);
    // Reuse one map across shrinking/growing capacities — the used-slot
    // reset must keep the two in lockstep.
    for (const std::size_t capacity : {64u, 16u, 100u, 17u, 1000u, 33u}) {
      SCOPED_TRACE(capacity);
      scalar_map.reconfigure(capacity);
      vector_map.reconfigure(capacity);
      for (std::size_t i = 0; i < capacity; ++i) {
        const key64_t k = rng.next_u64() % (capacity * 2);
        const value_t v = rng.next_double(-1.0, 1.0);
        EXPECT_EQ(scalar_map.accumulate(k, v), vector_map.accumulate(k, v));
      }
      ASSERT_EQ(scalar_map.probes(), vector_map.probes());
      const auto scalar_entries = scalar_map.extract();
      const auto vector_entries = vector_map.extract();
      ASSERT_EQ(scalar_entries.size(), vector_entries.size());
      for (std::size_t i = 0; i < scalar_entries.size(); ++i) {
        EXPECT_EQ(scalar_entries[i].key, vector_entries[i].key);
        EXPECT_EQ(scalar_entries[i].value, vector_entries[i].value);
      }
    }
  }
}

TEST(SimdFlatMap, EquivalentToScalarAcrossGrowthAndClear) {
  for (const SimdBackend backend : vector_backends()) {
    SCOPED_TRACE(simd::backend_name(backend));
    Xoshiro256 rng(7800);
    FlatSpillMap scalar_map;
    FlatSpillMap vector_map;
    vector_map.set_backend(backend);
    for (int round = 0; round < 3; ++round) {
      // Grow through several doublings; mix fresh keys and re-accumulates.
      for (int i = 0; i < 3000; ++i) {
        const key64_t k = rng.next_u64() % 1024;
        const value_t v = rng.next_double(-1.0, 1.0);
        if ((i & 7) == 0) {
          EXPECT_EQ(scalar_map.insert(k), vector_map.insert(k));
        } else {
          scalar_map.accumulate(k, v);
          vector_map.accumulate(k, v);
        }
      }
      ASSERT_EQ(scalar_map.size(), vector_map.size());
      std::vector<std::pair<key64_t, value_t>> scalar_seen, vector_seen;
      scalar_map.for_each([&](key64_t k, value_t v) { scalar_seen.emplace_back(k, v); });
      vector_map.for_each([&](key64_t k, value_t v) { vector_seen.emplace_back(k, v); });
      EXPECT_EQ(scalar_seen, vector_seen) << "round " << round;
      scalar_map.clear();
      vector_map.clear();
    }
  }
}

TEST(SimdDenseExtraction, EquivalentToScalar) {
  const Csr b = gen::power_law(300, 300, 12, 1.8, 100, 7900);
  const Csr a = gen::power_law(40, 300, 20, 1.6, 100, 7901);
  DenseScratch scalar_scratch, vector_scratch;
  for (const SimdBackend backend : vector_backends()) {
    for (index_t row = 0; row < a.rows(); ++row) {
      // Window smaller than the range → multiple passes incl. partial tails.
      for (const std::size_t window : {7u, 32u, 64u, 300u}) {
        const auto scalar_view = dense_accumulate_row(
            b, a.row_cols(row), a.row_vals(row), 0, b.cols() - 1, window,
            /*numeric=*/true, scalar_scratch, SimdBackend::kScalar);
        const auto vector_view = dense_accumulate_row(
            b, a.row_cols(row), a.row_vals(row), 0, b.cols() - 1, window,
            /*numeric=*/true, vector_scratch, backend);
        ASSERT_EQ(scalar_view.cols.size(), vector_view.cols.size());
        for (std::size_t i = 0; i < scalar_view.cols.size(); ++i) {
          EXPECT_EQ(scalar_view.cols[i], vector_view.cols[i]);
          EXPECT_EQ(scalar_view.vals[i], vector_view.vals[i]);
        }
        EXPECT_EQ(scalar_view.passes, vector_view.passes);
        EXPECT_EQ(scalar_view.element_touches, vector_view.element_touches);
        EXPECT_EQ(scalar_view.cells_scanned, vector_view.cells_scanned);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full pipeline: backend choice never changes results
// ---------------------------------------------------------------------------

void expect_stats_equal(const PassStats& got, const PassStats& want,
                        const char* pass) {
  EXPECT_EQ(got.seconds, want.seconds) << pass;
  EXPECT_EQ(got.direct_rows, want.direct_rows) << pass;
  EXPECT_EQ(got.dense_rows, want.dense_rows) << pass;
  EXPECT_EQ(got.hash_rows, want.hash_rows) << pass;
  EXPECT_EQ(got.global_hash_blocks, want.global_hash_blocks) << pass;
  EXPECT_EQ(got.global_pool_bytes, want.global_pool_bytes) << pass;
  EXPECT_EQ(got.hash_probes, want.hash_probes) << pass;
  EXPECT_EQ(got.moved_entries, want.moved_entries) << pass;
  EXPECT_EQ(got.global_inserts, want.global_inserts) << pass;
}

/// Multiplies (a, b) with the scalar backend and with `backend`, asserting
/// bitwise-equal CSR output, equal simulated time and equal counters.
void check_backend_matches_scalar(SpeckConfig cfg, SimdBackend backend,
                                  const Csr& a, const Csr& b) {
  cfg.plan_cache = false;  // exercise the full pipeline every call
  cfg.simd_backend = SimdBackend::kScalar;
  Speck scalar_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  cfg.simd_backend = backend;
  Speck vector_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

  const SpGemmResult scalar_result = scalar_sp.multiply(a, b);
  const SpGemmResult vector_result = vector_sp.multiply(a, b);
  ASSERT_TRUE(scalar_result.ok()) << scalar_result.failure_reason;
  ASSERT_TRUE(vector_result.ok()) << vector_result.failure_reason;

  const auto diff = compare(vector_result.c, scalar_result.c, 0.0);  // bitwise
  EXPECT_FALSE(diff.has_value()) << diff->description;
  EXPECT_EQ(vector_result.seconds, scalar_result.seconds);
  EXPECT_EQ(vector_result.peak_memory_bytes, scalar_result.peak_memory_bytes);
  expect_stats_equal(vector_sp.last_diagnostics().symbolic,
                     scalar_sp.last_diagnostics().symbolic, "symbolic");
  expect_stats_equal(vector_sp.last_diagnostics().numeric,
                     scalar_sp.last_diagnostics().numeric, "numeric");
  EXPECT_EQ(vector_sp.last_diagnostics().radix_sorted_elements,
            scalar_sp.last_diagnostics().radix_sorted_elements);
}

TEST(SimdPipeline, BackendsBitIdenticalAcrossThreadCounts) {
  const Csr a = gen::power_law(600, 600, 8, 1.9, 150, 6101);
  const Csr b = gen::power_law(600, 600, 7, 1.8, 150, 6103);
  for (const SimdBackend backend : vector_backends()) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(testing::Message() << simd::backend_name(backend) << " x"
                                      << threads);
      SpeckConfig cfg;
      cfg.host_threads = threads;
      check_backend_matches_scalar(cfg, backend, a, b);
    }
  }
}

TEST(SimdPipeline, BackendsBitIdenticalUnderForcedSpill) {
  const Csr a = gen::power_law(400, 400, 10, 1.7, 200, 6105);
  for (const SimdBackend backend : vector_backends()) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(testing::Message() << simd::backend_name(backend) << " x"
                                      << threads);
      SpeckConfig cfg;
      cfg.host_threads = threads;
      cfg.faults.hash_overflow_after = 8;  // force the global-memory fallback
      cfg.faults.estimate_scale = 0.25;    // undersized bins -> spills
      check_backend_matches_scalar(cfg, backend, a, a);
    }
  }
}

TEST(SimdPipeline, BackendsBitIdenticalOnStructuredMatrices) {
  // Dense-friendly structures drive the vectorized window extraction.
  const Csr grid = gen::stencil_2d(48, 48);
  const Csr band = gen::banded(800, 12, 8, 6107);
  for (const SimdBackend backend : vector_backends()) {
    SCOPED_TRACE(simd::backend_name(backend));
    SpeckConfig cfg;
    cfg.host_threads = 1;
    check_backend_matches_scalar(cfg, backend, grid, grid);
    check_backend_matches_scalar(cfg, backend, band, band);
  }
}

TEST(SimdPipeline, PlanReplayBitIdenticalAcrossBackends) {
  const Csr a = gen::power_law(500, 500, 9, 1.8, 120, 6109);
  for (const SimdBackend backend : vector_backends()) {
    SCOPED_TRACE(simd::backend_name(backend));
    SpeckConfig cfg;
    cfg.plan_cache = false;
    cfg.simd_backend = SimdBackend::kScalar;
    Speck scalar_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    cfg.simd_backend = backend;
    Speck vector_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    const SpeckPlan scalar_plan = scalar_sp.plan(a, a);
    const SpeckPlan vector_plan = vector_sp.plan(a, a);
    ASSERT_TRUE(scalar_plan.complete) << scalar_plan.incomplete_reason;
    ASSERT_TRUE(vector_plan.complete) << vector_plan.incomplete_reason;

    const SpGemmResult scalar_replay = scalar_sp.multiply_with_plan(scalar_plan, a, a);
    const SpGemmResult vector_replay = vector_sp.multiply_with_plan(vector_plan, a, a);
    ASSERT_TRUE(scalar_replay.ok());
    ASSERT_TRUE(vector_replay.ok());
    EXPECT_FALSE(vector_sp.last_diagnostics().plan_fallback);
    const auto diff = compare(vector_replay.c, scalar_replay.c, 0.0);
    EXPECT_FALSE(diff.has_value()) << diff->description;
    EXPECT_EQ(vector_replay.seconds, scalar_replay.seconds);
  }
}

TEST(SimdPipeline, UnavailableBackendIsRejectedAtConstruction) {
#if !defined(__aarch64__)
  SpeckConfig cfg;
  cfg.simd_backend = SimdBackend::kNeon;
  EXPECT_THROW(Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg),
               InvalidArgument);
#else
  GTEST_SKIP() << "NEON is the native backend here";
#endif
}

}  // namespace
}  // namespace speck
