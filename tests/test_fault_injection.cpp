// Fault-injection matrix: every injected fault (estimate mis-scaling, forced
// hash-map overflow, shrunken scratchpads, jittered estimates, memory-budget
// caps) may only change the *planning* and the simulated cost. Over the whole
// test corpus the numeric CSR output must stay bit-identical to the Gustavson
// oracle — or fail with the typed out-of-memory status. This is the paper's
// graceful-degradation claim (estimates are hints, never correctness inputs)
// under deliberately hostile estimates.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "ref/masked.h"
#include "speck/speck.h"

namespace speck {
namespace {

struct NamedFault {
  std::string name;
  FaultSpec spec;
};

std::vector<NamedFault> fault_matrix() {
  std::vector<NamedFault> faults;
  {
    FaultSpec s;
    s.estimate_scale = 0.25;  // under-estimate: undersized bins, spills
    faults.push_back({"estimate-x0.25", s});
  }
  {
    FaultSpec s;
    s.estimate_scale = 4.0;  // over-estimate: rows mis-binned upward
    faults.push_back({"estimate-x4", s});
  }
  {
    FaultSpec s;
    s.hash_overflow_after = 8;  // force the global-memory fallback
    faults.push_back({"hash-overflow-after-8", s});
  }
  {
    FaultSpec s;
    s.scratchpad_scale = 0.5;  // kernels get half what binning assumed
    faults.push_back({"scratchpad-x0.5", s});
  }
  {
    FaultSpec s;
    s.estimate_jitter = 0.9;  // per-row chaos, deterministic via seed
    s.seed = 17;
    faults.push_back({"jitter-0.9", s});
  }
  {
    FaultSpec s;
    s.estimate_scale = 0.5;
    s.hash_overflow_after = 16;
    s.scratchpad_scale = 0.5;
    faults.push_back({"combined", s});
  }
  return faults;
}

Speck make_speck(const FaultSpec& spec, int host_threads) {
  SpeckConfig config;
  config.faults = spec;
  config.host_threads = host_threads;
  config.validate_inputs = true;
  return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
}

void run_matrix(int host_threads) {
  const auto corpus = gen::test_corpus();
  const auto faults = fault_matrix();
  for (const auto& entry : corpus) {
    const Csr oracle = gustavson_spgemm(entry.a, entry.b);
    for (const auto& fault : faults) {
      Speck speck = make_speck(fault.spec, host_threads);
      const auto outcome = speck.try_multiply(entry.a, entry.b);
      ASSERT_TRUE(outcome.ok()) << entry.name << " under " << fault.name
                                << ": " << outcome.status.to_string();
      // Tolerance 0: bit-identical values, not merely close.
      const auto diff = compare(outcome.result.c, oracle, 0.0);
      EXPECT_FALSE(diff.has_value())
          << entry.name << " under " << fault.name << ": "
          << (diff ? diff->description : "");
    }
  }
}

TEST(FaultMatrix, OutputBitIdenticalToOracle) { run_matrix(/*host_threads=*/0); }

TEST(FaultMatrix, OutputBitIdenticalToOracleAt8Threads) {
  run_matrix(/*host_threads=*/8);
}

TEST(FaultMatrix, ForcedOverflowActuallySpills) {
  // Prove the fault drives the fallback path rather than being ignored.
  FaultSpec spec;
  spec.hash_overflow_after = 4;
  bool spilled_somewhere = false;
  for (const auto& entry : gen::test_corpus()) {
    Speck speck = make_speck(spec, 0);
    // The spill counters below belong to the exact pipeline's hash kernels.
    speck.config().planning = PlanningMode::kExact;
    const auto outcome = speck.try_multiply(entry.a, entry.b);
    ASSERT_TRUE(outcome.ok()) << entry.name;
    const SpeckDiagnostics& diag = speck.last_diagnostics();
    spilled_somewhere = spilled_somewhere ||
                        diag.symbolic.global_hash_blocks > 0 ||
                        diag.numeric.global_hash_blocks > 0;
  }
  EXPECT_TRUE(spilled_somewhere)
      << "hash-overflow-after=4 never reached the global fallback";
}

TEST(FaultMatrix, ResultsIdenticalAcrossThreadCounts) {
  FaultSpec spec;
  spec.estimate_jitter = 0.5;
  spec.seed = 99;
  spec.hash_overflow_after = 8;
  for (const auto& entry : gen::test_corpus()) {
    Speck one = make_speck(spec, 1);
    Speck eight = make_speck(spec, 8);
    const auto r1 = one.try_multiply(entry.a, entry.b);
    const auto r8 = eight.try_multiply(entry.a, entry.b);
    ASSERT_TRUE(r1.ok() && r8.ok()) << entry.name;
    EXPECT_FALSE(compare(r1.result.c, r8.result.c, 0.0).has_value())
        << entry.name;
    // The simulated schedule (and thus the modeled time) is part of the
    // determinism contract too.
    EXPECT_EQ(r1.result.seconds, r8.result.seconds) << entry.name;
  }
}

TEST(FaultMatrix, MaskedOutputBitIdenticalToMaskedOracle) {
  // Shrinking or jittering the analysis estimates may only move binning:
  // the masked accumulator demand min(products, mask row) is a hard bound
  // and must stay on the exact product counts.
  std::vector<NamedFault> faults;
  {
    FaultSpec s;
    s.estimate_scale = 0.5;
    faults.push_back({"estimate-x0.5", s});
  }
  {
    FaultSpec s;
    s.estimate_jitter = 0.9;
    s.seed = 17;
    faults.push_back({"jitter-0.9", s});
  }
  for (const auto& entry : gen::test_corpus()) {
    // The product's own pattern (demand == products on every row) and a
    // sparse random mask (demand == mask row on most rows).
    const Csr full = gustavson_spgemm(entry.a, entry.b);
    const Csr sparse =
        gen::random_uniform(entry.a.rows(), entry.b.cols(), 8, 4201);
    for (const Csr* mask : {&full, &sparse}) {
      const Csr oracle = masked_spgemm(entry.a, entry.b, *mask);
      for (const auto& fault : faults) {
        Speck speck = make_speck(fault.spec, 0);
        speck.config().mask = std::make_shared<const Csr>(*mask);
        const auto outcome = speck.try_multiply(entry.a, entry.b);
        ASSERT_TRUE(outcome.ok()) << entry.name << " under " << fault.name
                                  << ": " << outcome.status.to_string();
        const auto diff = compare(outcome.result.c, oracle, 0.0);
        EXPECT_FALSE(diff.has_value())
            << entry.name << " under " << fault.name << ": "
            << (diff ? diff->description : "");
      }
    }
  }
}

TEST(FaultMatrix, TightMemoryBudgetIsTypedFailure) {
  FaultSpec spec;
  spec.memory_budget_bytes = 2048;
  const auto corpus = gen::test_corpus();
  ASSERT_FALSE(corpus.empty());
  Speck speck = make_speck(spec, 0);
  const auto outcome = speck.try_multiply(corpus.front().a, corpus.front().b);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code, ErrorCode::kResourceExhausted);
  EXPECT_FALSE(outcome.status.message.empty());
}

/// Peak device memory of an unbudgeted run, plus every distinct OOM
/// failure_reason a geometric memory-budget sweep (x0.97 per step, from
/// peak + 1 down to 64 bytes) reaches.
struct OomSweep {
  std::size_t peak = 0;
  std::set<std::string> exits;
};

/// `configure` adjusts the config (features, faults) before the budget is
/// set; planning and the plan cache stay pinned.
OomSweep sweep_memory_budget(
    PlanningMode planning, const Csr& a, const Csr* mask,
    const std::function<void(SpeckConfig&)>& configure = {}) {
  const auto run = [&](std::size_t budget) {
    SpeckConfig config;
    if (configure) configure(config);
    // Pinned so SPECK_PLANNING cannot move the expectations.
    config.planning = planning;
    config.plan_cache = false;
    config.faults.memory_budget_bytes = budget;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
    return mask != nullptr ? speck.multiply_masked(a, a, *mask)
                           : speck.multiply(a, a);
  };
  OomSweep sweep;
  const SpGemmResult full = run(0);
  EXPECT_TRUE(full.ok()) << full.failure_reason;
  sweep.peak = full.peak_memory_bytes;
  for (double budget = static_cast<double>(sweep.peak + 1); budget >= 64.0;
       budget *= 0.97) {
    const SpGemmResult result = run(static_cast<std::size_t>(budget));
    if (result.ok()) continue;
    EXPECT_EQ(result.status, SpGemmStatus::kOutOfMemory) << result.failure_reason;
    sweep.exits.insert(result.failure_reason);
  }
  return sweep;
}

// Pins the simulated device-memory footprint of each pipeline mode and the
// OOM exits a shrinking budget reaches, so the allocation order and sizes
// stay fixed across refactors of the pipeline driver. Replay is left out:
// the budget is part of the plan fingerprint, so a budgeted replay always
// falls back to the full pipeline.
TEST(FaultMatrix, OomExitsPerPipelineMode) {
  const Csr a = gen::power_law(2000, 2000, 6, 1.8, 100, 2);
  const Csr mask = gen::random_uniform(2000, 2000, 9, 3);
  const std::string input = "input matrices exceed device memory";
  const std::string output = "output matrix exceeds device memory";

  const OomSweep exact = sweep_memory_budget(PlanningMode::kExact, a, nullptr);
  EXPECT_EQ(exact.peak, 1108396u);
  EXPECT_EQ(exact.exits, (std::set<std::string>{
                             input, "row analysis buffers exceed device memory",
                             output}));

  const OomSweep estimated =
      sweep_memory_budget(PlanningMode::kEstimated, a, nullptr);
  EXPECT_EQ(estimated.peak, 1954712u);
  EXPECT_EQ(estimated.exits,
            (std::set<std::string>{
                input, "row estimation buffers exceed device memory",
                "load balancer buffers exceed device memory",
                "estimated output staging exceeds device memory", output}));

  const OomSweep masked = sweep_memory_budget(PlanningMode::kExact, a, &mask);
  EXPECT_EQ(masked.peak, 754288u);
  EXPECT_EQ(masked.exits,
            (std::set<std::string>{
                input, "row analysis buffers exceed device memory",
                "masked output staging exceeds device memory"}));

  // The exact-mode exits the default settings never reach. A few
  // 2000-entry rows over 1-entry rows put rows of A·A into the largest
  // kernel with more products than its scratchpad holds, which sizes a
  // numeric global hash pool (4.5 MiB, the bulk of the peak); the always-on
  // balancer allocates its buffers before either pass. The shrunken
  // scratchpad also spills the symbolic maps into a global pool of its own.
  const Csr skewed = gen::skewed_rows(6000, 6000, 0.002, 2000, 1, 5);
  const OomSweep balanced = sweep_memory_budget(
      PlanningMode::kExact, skewed, nullptr, [](SpeckConfig& config) {
        config.features.set_global_lb(GlobalLbMode::kAlwaysOn);
        config.faults.scratchpad_scale = 0.25;
      });
  EXPECT_EQ(balanced.peak, 7825344u);
  EXPECT_EQ(balanced.exits,
            (std::set<std::string>{
                input, "row analysis buffers exceed device memory",
                "load balancer buffers exceed device memory",
                "global hash pool exceeds device memory", output}));
}

/// One run of `a`·`a` (masked by `mask` when non-null) under a device-memory
/// budget (0 = none), with planning pinned and the plan cache off.
SpGemmResult run_with_budget(PlanningMode planning, const Csr& a,
                             const Csr* mask, std::size_t budget) {
  SpeckConfig config;
  config.planning = planning;
  config.plan_cache = false;
  config.faults.memory_budget_bytes = budget;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
  return mask != nullptr ? speck.multiply_masked(a, a, *mask)
                         : speck.multiply(a, a);
}

bool same_bytes(const Csr& x, const Csr& y) {
  const auto same = [](auto p, auto q) {
    return p.size() == q.size() &&
           std::memcmp(p.data(), q.data(), p.size_bytes()) == 0;
  };
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         same(x.row_offsets(), y.row_offsets()) &&
         same(x.col_indices(), y.col_indices()) && same(x.values(), y.values());
}

// The OOM exit at its boundary, per mode: a budget of exactly the peak the
// unbudgeted run reports fits (and changes no output byte), one byte less
// fails at the last allocation, the exact output matrix. The x0.97 sweep
// above steps over this boundary; in masked mode it never reaches the
// output exit at all.
TEST(FaultMatrix, OomBoundaryPerPipelineMode) {
  const Csr a = gen::power_law(2000, 2000, 6, 1.8, 100, 2);
  const Csr mask = gen::random_uniform(2000, 2000, 9, 3);
  const struct {
    const char* name;
    PlanningMode planning;
    const Csr* mask;
  } modes[] = {{"exact", PlanningMode::kExact, nullptr},
               {"estimated", PlanningMode::kEstimated, nullptr},
               {"masked", PlanningMode::kExact, &mask}};
  for (const auto& mode : modes) {
    const SpGemmResult full = run_with_budget(mode.planning, a, mode.mask, 0);
    ASSERT_TRUE(full.ok()) << mode.name << ": " << full.failure_reason;
    const std::size_t peak = full.peak_memory_bytes;

    const SpGemmResult fits = run_with_budget(mode.planning, a, mode.mask, peak);
    ASSERT_TRUE(fits.ok()) << mode.name << ": " << fits.failure_reason;
    EXPECT_EQ(fits.peak_memory_bytes, peak) << mode.name;
    EXPECT_TRUE(same_bytes(fits.c, full.c)) << mode.name;

    const SpGemmResult over =
        run_with_budget(mode.planning, a, mode.mask, peak - 1);
    EXPECT_EQ(over.status, SpGemmStatus::kOutOfMemory) << mode.name;
    EXPECT_EQ(over.failure_reason, "output matrix exceeds device memory")
        << mode.name;
  }
}

// The one exact-mode exit no sweep reaches: the radix sort's double buffer
// is the pipeline's last transient and under 1% of this run's peak, so the
// x0.97 steps jump over it. Rows of up to 400 entries put hash rows into
// the kernels that sort through the device radix sort, and no global pool
// is needed, so the sort buffer sits on top of everything resident and
// sets the peak: every budget in [peak - sort buffer, peak) fails there.
TEST(FaultMatrix, RadixSortOomAtItsBoundary) {
  const Csr a = gen::power_law(4000, 4000, 16, 1.6, 400, 2);
  SpeckConfig config;
  config.planning = PlanningMode::kExact;
  config.plan_cache = false;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
  const SpGemmResult full = speck.multiply(a, a);
  ASSERT_TRUE(full.ok()) << full.failure_reason;
  const SpeckDiagnostics& diag = speck.last_diagnostics();
  const std::size_t sort_bytes =
      static_cast<std::size_t>(diag.radix_sorted_elements) *
      (sizeof(index_t) + sizeof(value_t));
  ASSERT_GT(sort_bytes, 0u);
  ASSERT_EQ(diag.numeric.global_pool_bytes, 0u);
  const std::size_t peak = full.peak_memory_bytes;

  const SpGemmResult fits = run_with_budget(PlanningMode::kExact, a, nullptr, peak);
  ASSERT_TRUE(fits.ok()) << fits.failure_reason;
  EXPECT_TRUE(same_bytes(fits.c, full.c));
  for (const std::size_t budget : {peak - 1, peak - sort_bytes}) {
    const SpGemmResult over = run_with_budget(PlanningMode::kExact, a, nullptr, budget);
    EXPECT_EQ(over.status, SpGemmStatus::kOutOfMemory) << budget;
    EXPECT_EQ(over.failure_reason, "radix sort buffers exceed device memory") << budget;
  }
}

// The global hash pool is sized at the scratchpad capacity the kernels get:
// with a quarter of each scratchpad, rows of the largest kernel spill their
// symbolic maps, and the pool they spill into is charged to device memory.
TEST(FaultMatrix, ScaledScratchpadChargesTheGlobalPool) {
  const Csr a = gen::skewed_rows(6000, 6000, 0.002, 2000, 1, 5);
  for (const double scale : {1.0, 0.25}) {
    SpeckConfig config;
    config.planning = PlanningMode::kExact;
    config.plan_cache = false;
    config.faults.scratchpad_scale = scale;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
    ASSERT_TRUE(speck.multiply(a, a).ok()) << scale;
    const PassStats& symbolic = speck.last_diagnostics().symbolic;
    if (scale == 1.0) {
      EXPECT_EQ(symbolic.global_inserts, 0u);
      EXPECT_EQ(symbolic.global_pool_bytes, 0u);
    } else {
      EXPECT_GT(symbolic.global_inserts, 0u);
      EXPECT_GT(symbolic.global_pool_bytes, 0u);
    }
  }
}

TEST(FaultInjector, EstimateScalingIsDeterministic) {
  FaultSpec spec;
  spec.estimate_scale = 2.0;
  spec.estimate_jitter = 0.5;
  spec.seed = 7;
  const FaultInjector injector(spec);
  const FaultInjector again(spec);
  for (index_t row = 0; row < 64; ++row) {
    const offset_t scaled = injector.scale_estimate(row, 100);
    EXPECT_EQ(scaled, again.scale_estimate(row, 100));
    // scale 2 +/- 50% jitter keeps the factor within [1, 3].
    EXPECT_GE(scaled, 100);
    EXPECT_LE(scaled, 300);
  }
  // Different seeds must actually change something.
  FaultSpec other = spec;
  other.seed = 8;
  const FaultInjector reseeded(other);
  bool any_difference = false;
  for (index_t row = 0; row < 64; ++row) {
    any_difference = any_difference ||
                     injector.scale_estimate(row, 100) !=
                         reseeded.scale_estimate(row, 100);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, CapacityClampsToOneSlot) {
  FaultSpec spec;
  spec.scratchpad_scale = 0.001;
  const FaultInjector injector(spec);
  EXPECT_EQ(injector.scratchpad_capacity(10), 1u);
  EXPECT_EQ(injector.scratchpad_capacity(10000), 10u);
  // Identity when the fault is off.
  EXPECT_EQ(FaultInjector(FaultSpec{}).scratchpad_capacity(123), 123u);
}

TEST(FaultInjector, OverflowThresholdAndMemoryCap) {
  FaultSpec spec;
  spec.memory_budget_bytes = 1000;
  const FaultInjector injector(spec);
  EXPECT_EQ(injector.cap_memory(5000), 1000u);
  EXPECT_EQ(injector.cap_memory(500), 500u);
  EXPECT_EQ(FaultInjector(FaultSpec{}).cap_memory(5000), 5000u);
}

}  // namespace
}  // namespace speck
