// The two-level partitioned executor's headline guarantee: partition count,
// partition-local teams and cross-partition work stealing change only host
// wall-clock, never results. CSR bytes, simulated seconds and every
// PassStats counter must be bit-identical at any (partitions, threads,
// steal) combination — including the power-law skew that forces finished
// teams to steal — plus steady-state zero-allocation with partition-local
// workspace pools and sane schedule-dependent telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "speck/multi_gpu.h"
#include "speck/speck.h"

namespace speck {
namespace {

struct PipelineRun {
  Csr c;
  double seconds = 0.0;
  SpeckDiagnostics diag;
};

PipelineRun run_once(Speck& speck, const Csr& a, const Csr& b,
                     const std::string& name) {
  SpGemmResult result = speck.multiply(a, b);
  EXPECT_TRUE(result.ok()) << name << ": " << result.failure_reason;
  return PipelineRun{std::move(result.c), result.seconds,
                     speck.last_diagnostics()};
}

void expect_identical(const PipelineRun& want, const PipelineRun& got,
                      const std::string& trace) {
  SCOPED_TRACE(trace);
  ASSERT_EQ(got.c.nnz(), want.c.nnz());
  const auto wo = want.c.row_offsets();
  const auto go = got.c.row_offsets();
  ASSERT_TRUE(std::equal(wo.begin(), wo.end(), go.begin()));
  const auto wc = want.c.col_indices();
  const auto gc = got.c.col_indices();
  ASSERT_TRUE(std::equal(wc.begin(), wc.end(), gc.begin()));
  const auto wv = want.c.values();
  const auto gv = got.c.values();
  for (std::size_t i = 0; i < wv.size(); ++i) {
    ASSERT_EQ(wv[i], gv[i]) << "value " << i;
  }
  EXPECT_EQ(got.seconds, want.seconds);
  // Counters must match exactly; the schedule-dependent telemetry lives in
  // diag.partition, deliberately outside this comparison.
  for (const bool numeric : {false, true}) {
    const PassStats& w = numeric ? want.diag.numeric : want.diag.symbolic;
    const PassStats& g = numeric ? got.diag.numeric : got.diag.symbolic;
    SCOPED_TRACE(numeric ? "numeric" : "symbolic");
    EXPECT_EQ(g.seconds, w.seconds);
    EXPECT_EQ(g.direct_rows, w.direct_rows);
    EXPECT_EQ(g.dense_rows, w.dense_rows);
    EXPECT_EQ(g.hash_rows, w.hash_rows);
    EXPECT_EQ(g.global_hash_blocks, w.global_hash_blocks);
    EXPECT_EQ(g.global_pool_bytes, w.global_pool_bytes);
    EXPECT_EQ(g.hash_probes, w.hash_probes);
    EXPECT_EQ(g.moved_entries, w.moved_entries);
    EXPECT_EQ(g.global_inserts, w.global_inserts);
  }
  EXPECT_EQ(got.diag.radix_sorted_elements, want.diag.radix_sorted_elements);
}

SpeckConfig base_config() {
  SpeckConfig cfg;
  cfg.plan_cache = false;  // exercise the full pipeline every call
  return cfg;
}

/// The stress shape for stealing: one heavy head, a long light tail.
Csr skewed_power_law() { return gen::power_law(700, 700, 10, 2.2, 220, 9001); }

TEST(PartitionExecutor, BitIdenticalAcrossPartitionsThreadsAndStealing) {
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig cfg = base_config();
    cfg.host_threads = 1;
    cfg.partitions = 1;
    Speck baseline_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    const PipelineRun baseline =
        run_once(baseline_speck, entry.a, entry.b, entry.name);
    for (const int partitions : {2, 4}) {
      for (const int threads : {1, 8}) {
        for (const bool steal : {false, true}) {
          SpeckConfig run_cfg = base_config();
          run_cfg.host_threads = threads;
          run_cfg.partitions = partitions;
          run_cfg.partition_steal = steal;
          Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, run_cfg);
          expect_identical(
              baseline, run_once(speck, entry.a, entry.b, entry.name),
              entry.name + " partitions=" + std::to_string(partitions) +
                  " threads=" + std::to_string(threads) +
                  (steal ? " steal" : " no-steal"));
        }
      }
    }
  }
}

TEST(PartitionExecutor, PowerLawSkewBitIdenticalWithStealing) {
  // Heavy head rows concentrate the volume in the first partition, so the
  // other teams finish early and (with stealing on) claim foreign chunks.
  // The result must not care.
  const Csr a = skewed_power_law();
  SpeckConfig cfg = base_config();
  cfg.host_threads = 1;
  Speck baseline_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const PipelineRun baseline = run_once(baseline_speck, a, a, "power-law");
  for (const int partitions : {2, 4}) {
    for (const bool steal : {false, true}) {
      SpeckConfig run_cfg = base_config();
      run_cfg.host_threads = 8;
      run_cfg.partitions = partitions;
      run_cfg.partition_steal = steal;
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, run_cfg);
      // Two multiplies: cold workspaces, then warm — both must match.
      expect_identical(baseline, run_once(speck, a, a, "power-law"),
                       "cold partitions=" + std::to_string(partitions) +
                           (steal ? " steal" : " no-steal"));
      expect_identical(baseline, run_once(speck, a, a, "power-law"),
                       "warm partitions=" + std::to_string(partitions) +
                           (steal ? " steal" : " no-steal"));
    }
  }
}

TEST(PartitionExecutor, EstimatedPlanningBitIdenticalAcrossPartitions) {
  const Csr a = skewed_power_law();
  SpeckConfig cfg = base_config();
  cfg.host_threads = 1;
  cfg.planning = PlanningMode::kEstimated;
  Speck baseline_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const PipelineRun baseline = run_once(baseline_speck, a, a, "estimated");
  for (const int partitions : {2, 4}) {
    SpeckConfig run_cfg = base_config();
    run_cfg.host_threads = 8;
    run_cfg.partitions = partitions;
    run_cfg.planning = PlanningMode::kEstimated;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, run_cfg);
    expect_identical(baseline, run_once(speck, a, a, "estimated"),
                     "estimated partitions=" + std::to_string(partitions));
  }
}

TEST(PartitionExecutor, SteadyStateAllocationFreeWithPartitions) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  // Partition-local workspace pools must preserve the zero-allocation hot
  // path: after one cold multiply every block body runs allocation-free.
  // Single worker keeps the block-to-team assignment deterministic.
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig cfg = base_config();
    cfg.host_threads = 1;
    cfg.partitions = 4;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    (void)run_once(speck, entry.a, entry.b, entry.name);  // warm-up
    for (int rep = 0; rep < 2; ++rep) {
      const PipelineRun run = run_once(speck, entry.a, entry.b, entry.name);
      EXPECT_EQ(run.diag.symbolic.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
      EXPECT_EQ(run.diag.numeric.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
    }
  }
}

TEST(PartitionExecutor, DiagnosticsReflectTheRun) {
  const Csr a = skewed_power_law();
  SpeckConfig cfg = base_config();
  cfg.host_threads = 4;
  cfg.partitions = 4;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  (void)run_once(speck, a, a, "power-law");
  const PartitionDiag& part = speck.last_diagnostics().partition;
  EXPECT_EQ(part.partitions, 4);
  ASSERT_EQ(part.team_chunks.size(), 4u);
  ASSERT_EQ(part.team_steals.size(), 4u);
  ASSERT_EQ(part.team_seconds.size(), 4u);
  std::size_t chunks = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    chunks += part.team_chunks[t];
    EXPECT_LE(part.team_steals[t], part.team_chunks[t]);
    EXPECT_GE(part.team_seconds[t], 0.0);
  }
  EXPECT_GT(chunks, 0u);
  EXPECT_LE(part.steal_count(), chunks);
  EXPECT_GE(part.imbalance_ratio(), 1.0);  // max/avg over non-empty teams

  // The flat executor reports an empty struct.
  SpeckConfig flat_cfg = base_config();
  flat_cfg.host_threads = 4;
  flat_cfg.partitions = 1;
  Speck flat(sim::DeviceSpec::titan_v(), sim::CostModel{}, flat_cfg);
  (void)run_once(flat, a, a, "power-law");
  EXPECT_EQ(flat.last_diagnostics().partition.partitions, 1);
  EXPECT_EQ(flat.last_diagnostics().partition.steal_count(), 0u);
}

TEST(PartitionExecutor, MultiGpuPanelsAggregatePartitionTelemetry) {
  const Csr a = skewed_power_law();
  MultiGpuConfig mg;
  mg.gpus = 2;
  mg.speck = base_config();
  mg.speck.host_threads = 4;
  mg.speck.partitions = 2;
  MultiGpuSpeck multi(sim::DeviceSpec::titan_v(), sim::CostModel{}, mg);
  const SpGemmResult got = multi.multiply(a, a);
  ASSERT_TRUE(got.ok()) << got.failure_reason;

  SpeckConfig single_cfg = base_config();
  single_cfg.host_threads = 1;
  Speck single(sim::DeviceSpec::titan_v(), sim::CostModel{}, single_cfg);
  const SpGemmResult want = single.multiply(a, a);
  ASSERT_TRUE(want.ok());
  const auto diff = compare(got.c, want.c, 0.0);  // bitwise
  EXPECT_FALSE(diff.has_value()) << diff->description;

  const MultiGpuDiagnostics& diag = multi.last_diagnostics();
  EXPECT_GE(diag.worst_imbalance_ratio, 1.0);
  // steal_count is schedule-dependent; only sanity-bound it.
  EXPECT_LT(diag.steal_count, std::size_t{1} << 40);
}

TEST(PartitionExecutor, ResolvePartitionsHonorsEnvironment) {
  EXPECT_EQ(resolve_partitions(3), 3);
  ::setenv("SPECK_PARTITIONS", "5", 1);
  EXPECT_EQ(resolve_partitions(0), 5);
  EXPECT_EQ(resolve_partitions(2), 2);  // explicit config wins
  ::setenv("SPECK_PARTITIONS", "not-a-number", 1);
  EXPECT_EQ(resolve_partitions(0), 1);  // warned once, fell back to flat
  ::setenv("SPECK_PARTITIONS", "0", 1);
  EXPECT_EQ(resolve_partitions(0), 1);
  ::unsetenv("SPECK_PARTITIONS");
  EXPECT_EQ(resolve_partitions(0), 1);
}

TEST(PartitionExecutor, ConfigValidationAndDescribe) {
  SpeckConfig cfg;
  cfg.partitions = 4;
  cfg.partition_steal = false;
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const std::string text = describe(speck.config());
  EXPECT_NE(text.find("partitions"), std::string::npos);
  EXPECT_NE(text.find("partition_steal"), std::string::npos);
  SpeckConfig bad;
  bad.partitions = 300;
  EXPECT_THROW(
      Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, bad).multiply(
          gen::banded(8, 1, 1, 1), gen::banded(8, 1, 1, 1)),
      SpeckError);
}

}  // namespace
}  // namespace speck
