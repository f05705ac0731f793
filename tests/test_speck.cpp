// End-to-end tests of the spECK pipeline: correctness against the exact
// oracle across the test corpus, ablation configurations, edge cases and
// the diagnostics surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/prng.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

namespace speck {
namespace {

Speck make_speck() { return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}); }

/// For tests that assert exact-pipeline internals (symbolic-stage
/// diagnostics, timelines, traces): pinned so an SPECK_PLANNING=estimated
/// environment doesn't reroute them through the estimated pipeline.
Speck make_exact_speck() {
  SpeckConfig config;
  config.planning = PlanningMode::kExact;
  return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
}

void expect_exact(Speck& speck, const Csr& a, const Csr& b,
                  const std::string& label) {
  const SpGemmResult result = speck.multiply(a, b);
  ASSERT_TRUE(result.ok()) << label << ": " << result.failure_reason;
  const Csr expected = gustavson_spgemm(a, b);
  const auto diff = compare(result.c, expected);
  EXPECT_FALSE(diff.has_value()) << label << ": " << diff->description;
  EXPECT_TRUE(result.c.sorted_within_rows()) << label;
}

/// Every corpus entry, default configuration.
class SpeckCorpus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpeckCorpus, MatchesOracle) {
  const auto corpus = gen::test_corpus();
  const auto& entry = corpus[GetParam()];
  Speck speck = make_speck();
  expect_exact(speck, entry.a, entry.b, entry.name);
}

INSTANTIATE_TEST_SUITE_P(AllEntries, SpeckCorpus,
                         ::testing::Range<std::size_t>(0, 13),
                         [](const auto& info) {
                           return gen::test_corpus()[info.param].name;
                         });

/// Ablation grid: every feature combination must stay exact (only the
/// modeled time may change).
class SpeckAblation
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, int>> {};

TEST_P(SpeckAblation, AllConfigurationsExact) {
  const auto [dense, direct, dynamic_g, lb_mode] = GetParam();
  Speck speck = make_speck();
  speck.config().features.dense_accumulation = dense;
  speck.config().features.direct_rows = direct;
  speck.config().features.dynamic_group_size = dynamic_g;
  speck.config().features.set_global_lb(static_cast<GlobalLbMode>(lb_mode));
  const Csr a = gen::skewed_rows(800, 800, 0.02, 400, 3, 601);
  expect_exact(speck, a, a, "ablation");
  const Csr p = gen::power_law(400, 400, 8, 1.8, 120, 603);
  expect_exact(speck, p, p, "ablation powerlaw");
}

INSTANTIATE_TEST_SUITE_P(Grid, SpeckAblation,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Values(0, 1, 2)));

TEST(Speck, IdentityTimesAnything) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(300, 300, 5, 605);
  const Csr i = Csr::identity(300);
  const SpGemmResult result = speck.multiply(i, a);
  ASSERT_TRUE(result.ok());
  const auto diff = compare(result.c, a);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Speck, AnythingTimesIdentity) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(300, 300, 5, 607);
  const SpGemmResult result = speck.multiply(a, Csr::identity(300));
  ASSERT_TRUE(result.ok());
  const auto diff = compare(result.c, a);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Speck, EmptyMatrix) {
  Speck speck = make_speck();
  const Csr z = Csr::zeros(100, 100);
  const SpGemmResult result = speck.multiply(z, z);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.c.nnz(), 0);
  EXPECT_EQ(result.c.rows(), 100);
}

TEST(Speck, EmptyTimesNonEmpty) {
  Speck speck = make_speck();
  const Csr z = Csr::zeros(50, 50);
  const Csr a = gen::random_uniform(50, 50, 4, 609);
  EXPECT_TRUE(speck.multiply(z, a).ok());
  EXPECT_TRUE(speck.multiply(a, z).ok());
}

TEST(Speck, RectangularChain) {
  Speck speck = make_speck();
  const Csr a = gen::rectangular_lp(80, 700, 9, 611);
  const Csr b = transpose(a);
  expect_exact(speck, a, b, "A*At");
  expect_exact(speck, b, a, "At*A");
}

TEST(Speck, RejectsDimensionMismatch) {
  Speck speck = make_speck();
  const Csr a = Csr::zeros(4, 5);
  const Csr b = Csr::zeros(4, 5);
  EXPECT_THROW(speck.multiply(a, b), InvalidArgument);
}

TEST(Speck, TransposeIdentityHolds) {
  // (A*B)ᵀ == Bᵀ*Aᵀ — both sides computed by spECK.
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(150, 150, 5, 613);
  const Csr b = gen::banded(150, 10, 4, 617);
  const SpGemmResult ab = speck.multiply(a, b);
  const SpGemmResult btat = speck.multiply(transpose(b), transpose(a));
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(btat.ok());
  const auto diff = compare(transpose(ab.c), btat.c);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Speck, DiagnosticsPopulated) {
  Speck speck = make_exact_speck();
  const Csr a = gen::random_uniform(500, 500, 8, 619);
  ASSERT_TRUE(speck.multiply(a, a).ok());
  const SpeckDiagnostics& d = speck.last_diagnostics();
  EXPECT_EQ(d.products, count_products(a, a));
  EXPECT_GT(d.symbolic_blocks, 0);
  EXPECT_GT(d.numeric_blocks, 0);
  EXPECT_EQ(d.symbolic.hash_rows + d.symbolic.dense_rows + d.symbolic.direct_rows,
            a.rows());
  EXPECT_FALSE(d.wide_keys);
}

TEST(Speck, DirectRowsUsedForSingleEntryRows) {
  Speck speck = make_exact_speck();
  const Csr a = gen::single_entry_mix(600, 600, 1.0, 4, 621);  // all single-entry
  expect_exact(speck, a, a, "single entry");
  const SpeckDiagnostics& d = speck.last_diagnostics();
  EXPECT_EQ(d.symbolic.direct_rows, a.rows());
  EXPECT_EQ(d.numeric.direct_rows, a.rows());
  EXPECT_EQ(d.symbolic.hash_rows, 0);
}

TEST(Speck, DenseRowsUsedForDenseOutput) {
  Speck speck = make_speck();
  // Dense blocks produce output rows with density ~1 over their range.
  const Csr a = gen::block_diagonal(4, 120, 0.9, 623);
  expect_exact(speck, a, a, "block diagonal");
  EXPECT_GT(speck.last_diagnostics().numeric.dense_rows, 0);
}

TEST(Speck, GlobalLbEngagesOnSkewedLargeMatrix) {
  Speck speck = make_exact_speck();
  const Csr a = gen::skewed_rows(30000, 30000, 0.005, 3000, 2, 625);
  ASSERT_TRUE(speck.multiply(a, a).ok());
  EXPECT_TRUE(speck.last_diagnostics().symbolic_lb_used);
}

TEST(Speck, GlobalLbSkipsUniformSmallMatrix) {
  Speck speck = make_speck();
  const Csr a = gen::stencil_2d(30, 30);
  ASSERT_TRUE(speck.multiply(a, a).ok());
  EXPECT_FALSE(speck.last_diagnostics().symbolic_lb_used);
  EXPECT_FALSE(speck.last_diagnostics().numeric_lb_used);
}

TEST(Speck, SymbolicCountsMatchNumeric) {
  Speck speck = make_speck();
  for (const auto& entry : gen::test_corpus()) {
    const SpGemmResult result = speck.multiply(entry.a, entry.b);
    ASSERT_TRUE(result.ok()) << entry.name;
    const auto expected_nnz = gustavson_symbolic(entry.a, entry.b);
    for (index_t r = 0; r < result.c.rows(); ++r) {
      ASSERT_EQ(result.c.row_length(r), expected_nnz[static_cast<std::size_t>(r)])
          << entry.name << " row " << r;
    }
  }
}

TEST(Speck, OutOfMemoryReported) {
  sim::DeviceSpec tiny = sim::DeviceSpec::titan_v();
  tiny.global_memory_bytes = 1024;  // 1 KB device
  Speck speck(tiny, sim::CostModel{});
  const Csr a = gen::random_uniform(1000, 1000, 8, 627);
  const SpGemmResult result = speck.multiply(a, a);
  EXPECT_EQ(result.status, SpGemmStatus::kOutOfMemory);
  EXPECT_FALSE(result.failure_reason.empty());
}

TEST(Speck, TimelineCoversAllTime) {
  Speck speck = make_exact_speck();
  const Csr a = gen::random_uniform(2000, 2000, 10, 629);
  const SpGemmResult result = speck.multiply(a, a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.timeline.total_seconds(), result.seconds, 1e-12);
  EXPECT_GT(result.timeline.seconds(sim::Stage::kAnalysis), 0.0);
  EXPECT_GT(result.timeline.seconds(sim::Stage::kSymbolic), 0.0);
  EXPECT_GT(result.timeline.seconds(sim::Stage::kNumeric), 0.0);
}

TEST(Speck, PeakMemoryIncludesInputsAndOutput) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(1000, 1000, 8, 631);
  const SpGemmResult result = speck.multiply(a, a);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.peak_memory_bytes,
            2 * a.byte_size() + result.c.byte_size());
}

TEST(Speck, PascalDeviceWorks) {
  Speck speck(sim::DeviceSpec::pascal_like(), sim::CostModel{});
  const Csr a = gen::random_uniform(400, 400, 8, 633);
  expect_exact(speck, a, a, "pascal");
}

TEST(Speck, DeterministicTiming) {
  Speck speck = make_speck();
  const Csr a = gen::power_law(500, 500, 8, 1.9, 100, 635);
  const SpGemmResult r1 = speck.multiply(a, a);
  const SpGemmResult r2 = speck.multiply(a, a);
  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
  EXPECT_EQ(r1.peak_memory_bytes, r2.peak_memory_bytes);
}

}  // namespace
}  // namespace speck

namespace speck {
namespace {

TEST(SpeckTrace, CoversAllStages) {
  // Asserts symbolic launches exist, so pin exact planning (the estimated
  // pipeline intentionally has no symbolic stage).
  SpeckConfig exact_config;
  exact_config.planning = PlanningMode::kExact;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, exact_config);
  const Csr a = gen::random_uniform(800, 800, 8, 901);
  ASSERT_TRUE(speck.multiply(a, a).ok());
  const sim::LaunchTrace& trace = speck.last_trace();
  ASSERT_FALSE(trace.empty());
  bool saw_analysis = false, saw_symbolic = false, saw_numeric = false;
  for (const auto& launch : trace.launches()) {
    saw_analysis = saw_analysis || launch.name == "row_analysis";
    saw_symbolic = saw_symbolic || launch.name.rfind("symbolic/", 0) == 0;
    saw_numeric = saw_numeric || launch.name.rfind("numeric/", 0) == 0;
  }
  EXPECT_TRUE(saw_analysis);
  EXPECT_TRUE(saw_symbolic);
  EXPECT_TRUE(saw_numeric);
  EXPECT_GT(trace.total_blocks(), 0);
}

TEST(SpeckTrace, LbLaunchesOnlyWhenEngaged) {
  SpeckConfig config;
  // The lb_launches == 2 count below assumes both the symbolic and numeric
  // balancer run; estimated planning only has the numeric one.
  config.planning = PlanningMode::kExact;
  config.features.set_global_lb(GlobalLbMode::kAlwaysOff);
  Speck off(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
  const Csr a = gen::skewed_rows(3000, 3000, 0.01, 500, 3, 907);
  ASSERT_TRUE(off.multiply(a, a).ok());
  for (const auto& launch : off.last_trace().launches()) {
    EXPECT_EQ(launch.name.find("_lb"), std::string::npos) << launch.name;
  }

  config.features.set_global_lb(GlobalLbMode::kAlwaysOn);
  Speck on(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
  ASSERT_TRUE(on.multiply(a, a).ok());
  int lb_launches = 0;
  for (const auto& launch : on.last_trace().launches()) {
    lb_launches += launch.name.find("_lb") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(lb_launches, 2);
}

TEST(SpeckTrace, ResetBetweenRuns) {
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr big = gen::random_uniform(2000, 2000, 8, 911);
  const Csr small = gen::random_uniform(50, 50, 2, 913);
  ASSERT_TRUE(speck.multiply(big, big).ok());
  const int big_blocks = speck.last_trace().total_blocks();
  ASSERT_TRUE(speck.multiply(small, small).ok());
  EXPECT_LT(speck.last_trace().total_blocks(), big_blocks);
}

}  // namespace
}  // namespace speck

namespace speck {
namespace {

/// Robustness: exotic-but-valid configurations all stay exact.
class SpeckConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(SpeckConfigSweep, ExactUnderAnyValidConfig) {
  const auto [max_rows, fill, density] = GetParam();
  SpeckConfig config;
  config.max_rows_per_block = max_rows;
  config.max_numeric_fill = fill;
  config.dense_density_threshold = density;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
  const Csr a = gen::power_law(500, 500, 7, 1.8, 120, 2101);
  const SpGemmResult result = speck.multiply(a, a);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  const auto diff = compare(result.c, gustavson_spgemm(a, a));
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

INSTANTIATE_TEST_SUITE_P(Grid, SpeckConfigSweep,
                         ::testing::Combine(::testing::Values(1, 4, 32),
                                            ::testing::Values(0.3, 0.66, 1.0),
                                            ::testing::Values(0.05, 0.18, 0.9)));

TEST(SpeckWideKeys, EndToEndBeyond27BitColumns) {
  // B with more than 2^27 columns forces the 64-bit compound keys through
  // the whole pipeline.
  const index_t wide = (index_t{1} << 27) + 64;
  Coo a_coo(64, 256);
  Coo b_coo(256, wide);
  Xoshiro256 rng(2111);
  for (index_t r = 0; r < 64; ++r) {
    for (int i = 0; i < 4; ++i) {
      a_coo.add(r, static_cast<index_t>(rng.next_below(256)), 1.0 + r);
    }
  }
  for (index_t r = 0; r < 256; ++r) {
    b_coo.add(r, r, 1.0);                       // low columns
    b_coo.add(r, wide - 1 - r, 2.0);            // beyond 2^27
    b_coo.add(r, (index_t{1} << 27) + (r % 50), 3.0);  // straddling
  }
  const Csr a = a_coo.to_csr();
  const Csr b = b_coo.to_csr();

  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const SpGemmResult result = speck.multiply(a, b);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_TRUE(speck.last_diagnostics().wide_keys);
  const auto diff = compare(result.c, gustavson_spgemm(a, b));
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(SpeckWideKeys, MergedSpilledBlocksExtractBitwiseLikeGustavson) {
  // Short rows merge into hash blocks of up to 32 local rows, whose
  // compound keys carry the local row above 32 column bits (B is wider than
  // 2^27). Forced spills after 4 entries and quartered scratchpads send the
  // blocks' entries through the global map too. Each numeric block's one
  // radix sort over those keys must still emit every row in column order.
  const index_t wide = (index_t{1} << 27) + 4096;
  Coo a_coo(600, 300);
  Coo b_coo(300, wide);
  Xoshiro256 rng(2113);
  for (index_t r = 0; r < 600; ++r) {
    for (int i = 0; i < 3; ++i) {
      a_coo.add(r, static_cast<index_t>(rng.next_below(300)), rng.next_double(0.5, 2.0));
    }
  }
  for (index_t r = 0; r < 300; ++r) {
    for (int i = 0; i < 4; ++i) {
      // Columns below and beyond 2^27, repeated across B rows so products
      // collide in C.
      const auto col = static_cast<index_t>(
          i % 2 == 0 ? rng.next_below(5000)
                     : (index_t{1} << 27) - 2048 + static_cast<index_t>(rng.next_below(6000)));
      b_coo.add(r, col, rng.next_double(-2.0, 2.0));
    }
  }
  const Csr a = a_coo.to_csr();
  const Csr b = b_coo.to_csr();
  // The oracle runs on B with its columns renumbered densely in order (its
  // per-worker scratch is as wide as B) and maps them back: an order-keeping
  // renumbering changes neither the column order nor the summation order.
  std::vector<index_t> b_cols(b.col_indices().begin(), b.col_indices().end());
  std::sort(b_cols.begin(), b_cols.end());
  b_cols.erase(std::unique(b_cols.begin(), b_cols.end()), b_cols.end());
  const auto dense_col = [&](index_t c) {
    return static_cast<index_t>(std::lower_bound(b_cols.begin(), b_cols.end(), c) -
                                b_cols.begin());
  };
  Coo narrow_coo(b.rows(), static_cast<index_t>(b_cols.size()));
  for (index_t r = 0; r < b.rows(); ++r) {
    for (std::size_t i = 0; i < b.row_cols(r).size(); ++i) {
      narrow_coo.add(r, dense_col(b.row_cols(r)[i]), b.row_vals(r)[i]);
    }
  }
  const Csr narrow_c = gustavson_spgemm(a, narrow_coo.to_csr());
  std::vector<index_t> want_cols(narrow_c.col_indices().begin(),
                                 narrow_c.col_indices().end());
  for (index_t& c : want_cols) c = b_cols[static_cast<std::size_t>(c)];

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    SpeckConfig config;
    config.planning = PlanningMode::kExact;
    config.host_threads = threads;
    config.faults.hash_overflow_after = 4;
    config.faults.scratchpad_scale = 0.25;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
    const SpGemmResult result = speck.multiply(a, b);
    ASSERT_TRUE(result.ok()) << result.failure_reason;
    const SpeckDiagnostics& d = speck.last_diagnostics();
    EXPECT_TRUE(d.wide_keys);
    EXPECT_EQ(d.numeric.direct_rows + d.numeric.dense_rows, 0);
    EXPECT_GT(d.numeric.hash_rows, d.numeric_blocks) << "no merged blocks";
    EXPECT_GT(d.numeric.global_hash_blocks, 0) << "no spilled blocks";
    const auto got_offsets = result.c.row_offsets();
    const auto want_offsets = narrow_c.row_offsets();
    ASSERT_TRUE(std::equal(got_offsets.begin(), got_offsets.end(),
                           want_offsets.begin(), want_offsets.end()));
    const auto got_cols = result.c.col_indices();
    ASSERT_TRUE(std::equal(got_cols.begin(), got_cols.end(), want_cols.begin(),
                           want_cols.end()));
    ASSERT_EQ(result.c.values().size(), narrow_c.values().size());
    ASSERT_EQ(std::memcmp(result.c.values().data(), narrow_c.values().data(),
                          narrow_c.values().size_bytes()),
              0);
  }
}

TEST(SpeckDescribe, RoundTripsThroughConfig) {
  SpeckConfig config;
  config.thresholds = reduced_scale_thresholds();
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
  const std::string text = describe(speck.config());
  EXPECT_NE(text.find("39.2"), std::string::npos);  // tuned symbolic ratio
}

}  // namespace
}  // namespace speck
