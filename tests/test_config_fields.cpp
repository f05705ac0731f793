// Classifies every SpeckConfig and FaultSpec field as part of the planning
// fingerprint (planning_config_hash) or execution-only. A plan built under
// one config is replayed under any config with the same fingerprint, so a
// field that changes what a plan computes but is missing from the hash would
// silently replay a stale plan; a hashed execution-only field would only
// fragment the cache. Every field must also show up in describe().
//
// Adding a field: give it a row in fields() below, then update the pinned
// sizes in TableCoversEveryField.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "matrix/csr.h"
#include "speck/config.h"
#include "speck/plan.h"

namespace speck {
namespace {

struct Field {
  const char* name;
  bool hashed;  ///< part of planning_config_hash (else execution-only)
  std::function<void(SpeckConfig&)> change;
};

/// The config every row changes one field of.
SpeckConfig base_config() {
  SpeckConfig cfg;
  // The hash takes the resolved planning mode; pin it so SPECK_PLANNING
  // cannot decide whether a planning change is visible.
  cfg.planning = PlanningMode::kExact;
  // describe() prints the fault seed only while jitter is on.
  cfg.faults.estimate_jitter = 0.5;
  return cfg;
}

const std::vector<Field>& fields() {
  static const std::vector<Field> table = {
      {"thresholds.symbolic.ratio", true,
       [](SpeckConfig& c) { c.thresholds.symbolic.ratio += 1.5; }},
      {"thresholds.symbolic.min_rows", true,
       [](SpeckConfig& c) { c.thresholds.symbolic.min_rows += 7; }},
      {"thresholds.symbolic_large.ratio", true,
       [](SpeckConfig& c) { c.thresholds.symbolic_large.ratio += 1.5; }},
      {"thresholds.symbolic_large.min_rows", true,
       [](SpeckConfig& c) { c.thresholds.symbolic_large.min_rows += 7; }},
      {"thresholds.numeric.ratio", true,
       [](SpeckConfig& c) { c.thresholds.numeric.ratio += 1.5; }},
      {"thresholds.numeric.min_rows", true,
       [](SpeckConfig& c) { c.thresholds.numeric.min_rows += 7; }},
      {"thresholds.numeric_large.ratio", true,
       [](SpeckConfig& c) { c.thresholds.numeric_large.ratio += 1.5; }},
      {"thresholds.numeric_large.min_rows", true,
       [](SpeckConfig& c) { c.thresholds.numeric_large.min_rows += 7; }},
      {"thresholds.symbolic_large_kernel_count", true,
       [](SpeckConfig& c) { ++c.thresholds.symbolic_large_kernel_count; }},
      {"thresholds.numeric_large_kernel_count", true,
       [](SpeckConfig& c) { ++c.thresholds.numeric_large_kernel_count; }},
      {"features.dense_accumulation", true,
       [](SpeckConfig& c) { c.features.dense_accumulation = false; }},
      {"features.direct_rows", true,
       [](SpeckConfig& c) { c.features.direct_rows = false; }},
      {"features.dynamic_group_size", true,
       [](SpeckConfig& c) { c.features.dynamic_group_size = false; }},
      {"features.fixed_group_size", true,
       [](SpeckConfig& c) { c.features.fixed_group_size = 64; }},
      {"features.block_merge", true,
       [](SpeckConfig& c) { c.features.block_merge = false; }},
      {"features.global_lb_symbolic", true,
       [](SpeckConfig& c) { c.features.global_lb_symbolic = GlobalLbMode::kAlwaysOn; }},
      {"features.global_lb_numeric", true,
       [](SpeckConfig& c) { c.features.global_lb_numeric = GlobalLbMode::kAlwaysOn; }},
      {"max_numeric_fill", true, [](SpeckConfig& c) { c.max_numeric_fill = 0.5; }},
      {"symbolic_dense_factor", true,
       [](SpeckConfig& c) { c.symbolic_dense_factor = 3.0; }},
      {"dense_density_threshold", true,
       [](SpeckConfig& c) { c.dense_density_threshold = 0.25; }},
      {"max_rows_per_block", true, [](SpeckConfig& c) { c.max_rows_per_block = 16; }},
      {"host_threads", false, [](SpeckConfig& c) { c.host_threads = 3; }},
      {"plan_cache", false, [](SpeckConfig& c) { c.plan_cache = false; }},
      {"simd_backend", false,
       [](SpeckConfig& c) { c.simd_backend = SimdBackend::kScalar; }},
      {"plan_cache_limit_bytes", false,
       [](SpeckConfig& c) { c.plan_cache_limit_bytes = 1u << 20; }},
      {"planning", true, [](SpeckConfig& c) { c.planning = PlanningMode::kEstimated; }},
      {"estimator_samples", true, [](SpeckConfig& c) { c.estimator_samples = 8; }},
      {"estimator_safety_margin", true,
       [](SpeckConfig& c) { c.estimator_safety_margin = 2.0; }},
      {"estimator_seed", true, [](SpeckConfig& c) { ++c.estimator_seed; }},
      {"partitions", false, [](SpeckConfig& c) { c.partitions = 3; }},
      {"partition_steal", false, [](SpeckConfig& c) { c.partition_steal = false; }},
      {"validate_inputs", false, [](SpeckConfig& c) { c.validate_inputs = true; }},
      // The mask keys plans through plan_fingerprint's own mask fields.
      {"mask", false, [](SpeckConfig& c) { c.mask = std::make_shared<const Csr>(); }},
      {"faults.estimate_scale", true, [](SpeckConfig& c) { c.faults.estimate_scale = 0.5; }},
      {"faults.estimate_jitter", true,
       [](SpeckConfig& c) { c.faults.estimate_jitter = 0.25; }},
      {"faults.seed", true, [](SpeckConfig& c) { c.faults.seed = 7; }},
      {"faults.hash_overflow_after", true,
       [](SpeckConfig& c) { c.faults.hash_overflow_after = 16; }},
      {"faults.scratchpad_scale", true,
       [](SpeckConfig& c) { c.faults.scratchpad_scale = 0.5; }},
      {"faults.memory_budget_bytes", true,
       [](SpeckConfig& c) { c.faults.memory_budget_bytes = 1u << 20; }},
      {"faults.estimator_scale", true,
       [](SpeckConfig& c) { c.faults.estimator_scale = 0.5; }},
      // Serving faults only change how the service treats a request.
      {"faults.plan_fail_mod", false, [](SpeckConfig& c) { c.faults.plan_fail_mod = 3; }},
      {"faults.plan_delay_ms", false, [](SpeckConfig& c) { c.faults.plan_delay_ms = 2.0; }},
      {"faults.admission_bytes_scale", false,
       [](SpeckConfig& c) { c.faults.admission_bytes_scale = 2.0; }},
      {"faults.evict_every", false, [](SpeckConfig& c) { c.faults.evict_every = 5; }},
  };
  return table;
}

TEST(ConfigFields, HashedExactlyWhenClassifiedAndAlwaysDescribed) {
  const SpeckConfig base = base_config();
  const std::uint64_t base_hash = planning_config_hash(base);
  const std::string base_text = describe(base);
  for (const Field& field : fields()) {
    SpeckConfig changed = base;
    field.change(changed);
    EXPECT_EQ(planning_config_hash(changed) != base_hash, field.hashed)
        << field.name << (field.hashed ? " is classified hashed"
                                       : " is classified execution-only");
    EXPECT_NE(describe(changed), base_text)
        << field.name << " is missing from describe()";
  }
}

TEST(ConfigFields, TableCoversEveryField) {
  // 10 threshold, 7 feature, 16 top-level and 11 fault fields.
  EXPECT_EQ(fields().size(), 44u);
  // A new field almost always changes these sizes (Linux x86-64, the CI
  // platform). When one fails, classify the new field in fields() above,
  // then update the pinned size.
#if defined(__linux__) && defined(__x86_64__)
  EXPECT_EQ(sizeof(LoadBalanceThresholds), 16u);
  EXPECT_EQ(sizeof(SpeckThresholds), 72u);
  EXPECT_EQ(sizeof(SpeckFeatures), 20u);
  EXPECT_EQ(sizeof(FaultSpec), 88u);
  EXPECT_EQ(sizeof(SpeckConfig), 280u);
#endif
}

}  // namespace
}  // namespace speck
