#include "speck/config.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/bit_utils.h"
#include "common/check.h"

namespace speck {

std::vector<KernelConfig> kernel_configs(const sim::DeviceSpec& device) {
  std::vector<KernelConfig> configs;
  // Build the halving ladder from the largest static config downwards ...
  int threads = device.max_threads_per_block;
  std::size_t smem = device.static_scratchpad_per_block;
  std::vector<KernelConfig> descending;
  for (int i = 0; i < 5; ++i) {
    descending.push_back(KernelConfig{threads, smem, false});
    threads /= 2;
    smem /= 2;
  }
  // ... then prepend the scratchpad opt-in config when the device has one.
  if (device.dynamic_scratchpad_per_block > device.static_scratchpad_per_block) {
    descending.insert(descending.begin(),
                      KernelConfig{device.max_threads_per_block,
                                   device.dynamic_scratchpad_per_block, true});
  }
  // Public order: smallest first.
  configs.assign(descending.rbegin(), descending.rend());
  return configs;
}

void validate(const SpeckConfig& config) {
  const auto check_pair = [](const LoadBalanceThresholds& t, const char* name) {
    SPECK_REQUIRE(t.ratio >= 0.0, std::string(name) + ": ratio must be >= 0");
    SPECK_REQUIRE(t.min_rows >= 0, std::string(name) + ": min_rows must be >= 0");
  };
  check_pair(config.thresholds.symbolic, "symbolic thresholds");
  check_pair(config.thresholds.symbolic_large, "symbolic large-kernel thresholds");
  check_pair(config.thresholds.numeric, "numeric thresholds");
  check_pair(config.thresholds.numeric_large, "numeric large-kernel thresholds");
  SPECK_REQUIRE(config.thresholds.symbolic_large_kernel_count >= 0 &&
                    config.thresholds.symbolic_large_kernel_count <= 6,
                "symbolic large-kernel count must be in [0, 6]");
  SPECK_REQUIRE(config.thresholds.numeric_large_kernel_count >= 0 &&
                    config.thresholds.numeric_large_kernel_count <= 6,
                "numeric large-kernel count must be in [0, 6]");
  SPECK_REQUIRE(config.max_numeric_fill > 0.0 && config.max_numeric_fill <= 1.0,
                "max_numeric_fill must be in (0, 1]");
  SPECK_REQUIRE(config.symbolic_dense_factor >= 1.0,
                "symbolic_dense_factor must be >= 1");
  SPECK_REQUIRE(config.dense_density_threshold > 0.0 &&
                    config.dense_density_threshold <= 1.0,
                "dense_density_threshold must be in (0, 1]");
  SPECK_REQUIRE(config.max_rows_per_block >= 1 && config.max_rows_per_block <= 32,
                "max_rows_per_block must be in [1, 32] (5-bit local row index)");
  SPECK_REQUIRE(config.features.fixed_group_size >= 1 &&
                    is_pow2(static_cast<std::uint64_t>(config.features.fixed_group_size)),
                "fixed_group_size must be a positive power of two");
  SPECK_REQUIRE(config.host_threads >= 0,
                "host_threads must be >= 0 (0 = process-wide default)");
  SPECK_REQUIRE(simd::backend_available(config.simd_backend),
                std::string("simd_backend '") +
                    simd::backend_name(config.simd_backend) +
                    "' is not available on this CPU");
  SPECK_REQUIRE(config.partitions >= 0 && config.partitions <= 256,
                "partitions must be in [0, 256] (0 = SPECK_PARTITIONS / 1)");
  SPECK_REQUIRE(config.estimator_samples >= 1,
                "estimator_samples must be >= 1");
  SPECK_REQUIRE(config.estimator_safety_margin >= 1.0 &&
                    config.estimator_safety_margin <= 16.0,
                "estimator_safety_margin must be in [1, 16]");
  validate(config.faults);
}

std::string describe(const SpeckConfig& config) {
  const auto mode_name = [](GlobalLbMode mode) {
    switch (mode) {
      case GlobalLbMode::kAuto: return "auto";
      case GlobalLbMode::kAlwaysOn: return "on";
      case GlobalLbMode::kAlwaysOff: return "off";
    }
    return "?";
  };
  const auto pair = [](const LoadBalanceThresholds& t) {
    return std::to_string(t.ratio) + " / " + std::to_string(t.min_rows);
  };
  std::string out;
  out += "thresholds.symbolic        = " + pair(config.thresholds.symbolic) + "\n";
  out += "thresholds.symbolic_large  = " + pair(config.thresholds.symbolic_large) + "\n";
  out += "thresholds.numeric         = " + pair(config.thresholds.numeric) + "\n";
  out += "thresholds.numeric_large   = " + pair(config.thresholds.numeric_large) + "\n";
  out += "thresholds.symbolic_large_kernel_count = " +
         std::to_string(config.thresholds.symbolic_large_kernel_count) + "\n";
  out += "thresholds.numeric_large_kernel_count  = " +
         std::to_string(config.thresholds.numeric_large_kernel_count) + "\n";
  out += "features.dense_accumulation= " +
         std::string(config.features.dense_accumulation ? "true" : "false") + "\n";
  out += "features.direct_rows       = " +
         std::string(config.features.direct_rows ? "true" : "false") + "\n";
  out += "features.dynamic_group_size= " +
         std::string(config.features.dynamic_group_size ? "true" : "false") + "\n";
  out += "features.fixed_group_size  = " +
         std::to_string(config.features.fixed_group_size) + "\n";
  out += "features.block_merge       = " +
         std::string(config.features.block_merge ? "true" : "false") + "\n";
  out += "features.global_lb         = symbolic:" +
         std::string(mode_name(config.features.global_lb_symbolic)) + " numeric:" +
         std::string(mode_name(config.features.global_lb_numeric)) + "\n";
  out += "max_numeric_fill           = " + std::to_string(config.max_numeric_fill) + "\n";
  out += "symbolic_dense_factor      = " +
         std::to_string(config.symbolic_dense_factor) + "\n";
  out += "dense_density_threshold    = " +
         std::to_string(config.dense_density_threshold) + "\n";
  out += "max_rows_per_block         = " + std::to_string(config.max_rows_per_block) + "\n";
  out += "host_threads               = " + std::to_string(config.host_threads) +
         (config.host_threads == 0 ? " (process default)" : "") + "\n";
  out += "plan_cache                 = " +
         std::string(config.plan_cache ? "true" : "false") + "\n";
  out += "plan_cache_limit_bytes     = " +
         std::to_string(config.plan_cache_limit_bytes) + "\n";
  out += "simd_backend               = " +
         std::string(simd::backend_name(config.simd_backend)) +
         (config.simd_backend == SimdBackend::kAuto
              ? " (resolves to " +
                    std::string(simd::backend_name(
                        simd::resolve_backend(SimdBackend::kAuto))) +
                    ")"
              : "") +
         "\n";
  out += "planning                   = " +
         std::string(planning_mode_name(config.planning)) +
         (config.planning == PlanningMode::kAuto
              ? " (resolves to " +
                    std::string(planning_mode_name(
                        resolve_planning(PlanningMode::kAuto))) +
                    ")"
              : "") +
         "\n";
  out += "partitions                 = " + std::to_string(config.partitions) +
         (config.partitions == 0
              ? " (resolves to " +
                    std::to_string(resolve_partitions(0)) + ")"
              : "") +
         "\n";
  out += "partition_steal            = " +
         std::string(config.partition_steal ? "true" : "false") + "\n";
  out += "estimator_samples          = " +
         std::to_string(config.estimator_samples) + "\n";
  out += "estimator_safety_margin    = " +
         std::to_string(config.estimator_safety_margin) + "\n";
  out += "estimator_seed             = " + std::to_string(config.estimator_seed) + "\n";
  out += "validate_inputs            = " +
         std::string(config.validate_inputs ? "true" : "false") + "\n";
  out += "mask                       = " +
         std::string(config.mask != nullptr ? "set" : "none") + "\n";
  out += describe(config.faults) + "\n";
  return out;
}

std::optional<PlanningMode> parse_planning_mode(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "auto") return PlanningMode::kAuto;
  if (lower == "exact") return PlanningMode::kExact;
  if (lower == "estimated") return PlanningMode::kEstimated;
  return std::nullopt;
}

const char* planning_mode_name(PlanningMode mode) {
  switch (mode) {
    case PlanningMode::kAuto: return "auto";
    case PlanningMode::kExact: return "exact";
    case PlanningMode::kEstimated: return "estimated";
  }
  return "?";
}

PlanningMode resolve_planning(PlanningMode choice) {
  if (choice != PlanningMode::kAuto) return choice;
  if (const char* env = std::getenv("SPECK_PLANNING")) {
    const std::optional<PlanningMode> parsed = parse_planning_mode(env);
    if (parsed.has_value() && *parsed != PlanningMode::kAuto) return *parsed;
    if (!parsed.has_value()) {
      // Invalid request from the environment: warn once and fall back to the
      // exact default rather than aborting the process.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "speck: ignoring SPECK_PLANNING='%s' (expected "
                     "auto|exact|estimated; using 'exact')\n",
                     env);
      }
    }
  }
  return PlanningMode::kExact;
}

int resolve_partitions(int partitions) {
  if (partitions >= 1) return partitions;
  if (const char* env = std::getenv("SPECK_PARTITIONS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1 && value <= 256) {
      return static_cast<int>(value);
    }
    // Invalid request from the environment: warn once and fall back to the
    // flat executor rather than aborting the process.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "speck: ignoring SPECK_PARTITIONS='%s' (expected an "
                   "integer in [1, 256]; using 1)\n",
                   env);
    }
  }
  return 1;
}

SpeckThresholds reduced_scale_thresholds() {
  SpeckThresholds t;
  t.symbolic = {39.2, 500};
  t.symbolic_large = {6.0, 2000};
  t.numeric = {3.0, 500};
  t.numeric_large = {1.3, 1238};
  return t;
}

}  // namespace speck
