// spECK kernel configurations and tunable parameters.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.h"
#include "common/simd.h"
#include "common/types.h"
#include "sim/device_spec.h"

namespace speck {

class Csr;

/// One of the six kernel configurations (paper §4.2 "Configuration"):
/// the largest uses the Volta 96 KB opt-in at 1024 threads (halving
/// occupancy), then 48 KB/1024, and each successive config halves both
/// scratchpad and threads.
struct KernelConfig {
  int threads = 0;
  std::size_t scratchpad_bytes = 0;
  bool reduced_occupancy = false;  ///< the 96 KB opt-in config

  /// Hash-map entries storable in the symbolic pass (index only, 32-bit).
  std::size_t symbolic_hash_capacity() const {
    return scratchpad_bytes / sizeof(key32_t);
  }
  /// Hash-map entries storable in the numeric pass (32-bit key + 64-bit value).
  std::size_t numeric_hash_capacity() const {
    return scratchpad_bytes / (sizeof(key32_t) + sizeof(value_t));
  }
  /// Dense-accumulator columns in the symbolic pass (one bit per column).
  std::size_t dense_symbolic_capacity() const { return scratchpad_bytes * 8; }
  /// Dense-accumulator columns in the numeric pass (value + occupancy flag).
  std::size_t dense_numeric_capacity() const {
    return scratchpad_bytes / (sizeof(value_t) + sizeof(key32_t));
  }
};

/// The per-device configuration ladder, smallest first. Six configs on a
/// Volta-class device, five when there is no scratchpad opt-in.
std::vector<KernelConfig> kernel_configs(const sim::DeviceSpec& device);

/// Auto-tunable thresholds for the conditional global load balancer
/// (paper §5, Table 2). The load balancer runs when
///   m_max/m_avg > ratio  AND  rows_c > min_rows
/// using the *large-kernel* set when the longest row falls into the largest
/// kernel configurations, the general set otherwise.
struct LoadBalanceThresholds {
  double ratio = 0.0;
  index_t min_rows = 0;
};

struct SpeckThresholds {
  LoadBalanceThresholds symbolic{39.2, 28000};
  LoadBalanceThresholds symbolic_large{6.0, 5431};
  LoadBalanceThresholds numeric{10.5, 23006};
  LoadBalanceThresholds numeric_large{1.3, 1238};
  /// How many of the largest kernels select the *_large set (paper: three of
  /// six in symbolic, two of six in numeric).
  int symbolic_large_kernel_count = 3;
  int numeric_large_kernel_count = 2;
};

/// Mode of the global load balancer; kAuto is spECK, the other two modes
/// exist for the Figure 14 ablation and the auto-tuner's measurements.
enum class GlobalLbMode { kAuto, kAlwaysOn, kAlwaysOff };

/// Feature toggles for the Figure 12/13/14 ablations.
struct SpeckFeatures {
  bool dense_accumulation = true;   ///< Fig. 12: hash vs hash+dense
  bool direct_rows = true;          ///< Fig. 12: +direct referencing
  bool dynamic_group_size = true;   ///< Fig. 13: dynamic g vs fixed 32
  int fixed_group_size = 32;        ///< used when dynamic_group_size is off
  /// Algorithm 2 block merging of the smallest bin (ablation: without it,
  /// every small row occupies its own under-filled block).
  bool block_merge = true;
  GlobalLbMode global_lb_symbolic = GlobalLbMode::kAuto;  ///< Fig. 14
  GlobalLbMode global_lb_numeric = GlobalLbMode::kAuto;   ///< Fig. 14

  void set_global_lb(GlobalLbMode mode) {
    global_lb_symbolic = mode;
    global_lb_numeric = mode;
  }
};

/// Thresholds auto-tuned with bench_table2_tuning over this repository's
/// reduced-scale synthetic corpus (matrices are ~10-100x smaller than the
/// SuiteSparse originals, so the `min_rows` gates shrink accordingly; the
/// ratio gates land close to the paper's). The benchmark suite uses these;
/// the paper's Table 2 values remain the SpeckThresholds defaults.
SpeckThresholds reduced_scale_thresholds();

/// How the planner derives per-row C sizes (docs/performance.md "Estimated
/// planning"). kExact runs the full symbolic pass; kEstimated replaces the
/// exact row analysis + symbolic pass with a sampled NNZ estimator (OCEAN-
/// style) and discovers the exact C pattern during the numeric pass, falling
/// back per row when an estimate underflows. C values and pattern are
/// bit-identical either way; only binning, allocation and planning cost may
/// differ. kAuto resolves via the SPECK_PLANNING environment variable, then
/// defaults to exact.
enum class PlanningMode { kAuto, kExact, kEstimated };

/// "auto" / "exact" / "estimated" (case-insensitive); nullopt on anything else.
std::optional<PlanningMode> parse_planning_mode(std::string_view name);

/// Stable lowercase name of a mode (inverse of parse_planning_mode).
const char* planning_mode_name(PlanningMode mode);

/// Resolves kAuto against the SPECK_PLANNING environment variable (invalid
/// values warn once on stderr and fall back), defaulting to kExact; concrete
/// modes are returned verbatim. Mirrors simd::resolve_backend.
PlanningMode resolve_planning(PlanningMode choice);

/// Resolves the effective partition count for the two-level executor
/// (docs/performance.md "NUMA scale-out"): an explicit `partitions >= 1` is
/// returned verbatim; 0 resolves via the SPECK_PARTITIONS environment
/// variable (invalid values warn once on stderr and fall back), defaulting
/// to 1 — the flat single-cursor executor. Mirrors resolve_planning.
int resolve_partitions(int partitions);

struct SpeckConfig {
  SpeckThresholds thresholds;
  SpeckFeatures features;
  /// Numeric hash maps are sized so that final occupancy stays below this
  /// fill rate (paper §4.2: 66%).
  double max_numeric_fill = 0.66;
  /// Symbolic dense accumulation is only used for rows with more than this
  /// multiple of the largest hash capacity in products (paper §4.3: 2x).
  double symbolic_dense_factor = 2.0;
  /// Numeric rows switch to dense accumulation above this density
  /// (paper §4.3: 18%, i.e. at most 3 dense window iterations).
  double dense_density_threshold = 0.18;
  /// Rows per merged block limit: 5 bits of local row index (paper §4.3).
  int max_rows_per_block = 32;
  /// Host threads the pipeline stages run on. 0 defers to the process-wide
  /// pool (SPECK_THREADS env or hardware concurrency); any value produces
  /// bit-identical results (see docs/tutorial.md "Parallel execution").
  int host_threads = 0;
  /// Transparent plan cache: when repeated multiply(a, b) calls present the
  /// same sparsity pattern (full structural fingerprint match, including
  /// this config's planning fields), the second consecutive call captures a
  /// SpeckPlan and every later one runs the values-only replay
  /// (docs/performance.md "Structure reuse"). Results stay bit-identical;
  /// only the skipped stages disappear from the timeline. Plans for
  /// different patterns coexist in an LRU cache (docs/service.md).
  /// Off: every multiply runs the full pipeline.
  bool plan_cache = true;
  /// SIMD backend for the kernel hot loops (docs/performance.md "SIMD
  /// backends"). kAuto resolves via the SPECK_SIMD environment variable,
  /// then CPU detection; a concrete value is used verbatim (construction
  /// fails when the CPU lacks it). The backend never changes results —
  /// CSR bytes, simulated seconds and all PassStats counters are identical
  /// across backends — only host wall time.
  SimdBackend simd_backend = SimdBackend::kAuto;
  /// Host-memory ceiling for the transparent plan cache, accounted across
  /// all cached plans (SpeckPlan::byte_size, which includes the replay
  /// program, the C pattern arrays and the diagnostics tail). A structure
  /// whose estimated plan exceeds the whole budget is never planned for
  /// caching; inserts beyond the budget evict LRU plans (explicit
  /// Speck::plan() calls ignore the limit — that memory is the caller's
  /// deliberate choice).
  std::size_t plan_cache_limit_bytes = 512u << 20;
  /// Planning mode (docs/performance.md "Estimated planning"). kAuto
  /// resolves via SPECK_PLANNING, then exact. Estimated planning skips the
  /// exact symbolic pass: row analysis, load balancing, kernel choice and C
  /// allocation run off sampled per-row NNZ estimates, and the numeric pass
  /// discovers the exact pattern, re-running any row whose estimate
  /// underflowed (counted in PassStats::estimate_underflow_rows). The
  /// resolved mode is part of the plan fingerprint, so estimated and exact
  /// plans never collide in the plan cache.
  PlanningMode planning = PlanningMode::kAuto;
  /// A-row positions the estimator samples per row (B row lengths probed);
  /// rows at most this long are measured exactly. Must be >= 1.
  int estimator_samples = 32;
  /// Multiplier applied to the collision-corrected NNZ estimate before it
  /// sizes bins and the intermediate C allocation. Must be >= 1; larger
  /// margins trade memory for a lower underflow-fallback rate.
  double estimator_safety_margin = 1.25;
  /// Seed of the estimator's stateless per-row PRNG. Part of the plan
  /// fingerprint: different seeds produce (deterministically) different
  /// estimates, hence potentially different binning.
  std::uint64_t estimator_seed = 0x0CEA0CEA0CEA0CEAull;
  /// Partitions of the two-level executor (docs/performance.md "NUMA
  /// scale-out"): pool workers split into per-partition teams, each with a
  /// partition-local chunk cursor and WorkspacePool; teams that drain their
  /// partition steal whole chunks from the most-loaded remaining one. The
  /// partition count, steal schedule and thread count never change results:
  /// chunk boundaries and output slots stay a pure function of the range,
  /// so CSR bytes and every PassStats counter are bit-identical — the knob
  /// (like host_threads) is excluded from the plan fingerprint. 0 resolves
  /// via SPECK_PARTITIONS, then 1 (today's flat executor). Must be <= 256.
  int partitions = 0;
  /// Cross-partition work stealing for the two-level executor. Off, idle
  /// teams still help drain remaining partitions in ascending order (work
  /// is conserved either way; only the victim choice differs), which
  /// isolates the stealing heuristic for benchmarks and tests.
  bool partition_steal = true;
  /// Re-validates the structural invariants of both inputs (and their
  /// within-row sortedness, which the analysis relies on) at the start of
  /// every multiply; violations raise BadInput. Off by default: matrices
  /// built through the library's own constructors are already validated.
  bool validate_inputs = false;
  /// Output mask (docs/performance.md "Masked SpGEMM"): when set, every
  /// multiply() computes C = (A·B) ∘ mask with GraphBLAS structural
  /// semantics — only mask positions may appear in C, a position is kept iff
  /// at least one intermediate product lands on it (computed zeros
  /// included), and the symbolic pass is skipped entirely because the mask
  /// row is the candidate pattern. Must be an m×n CSR matching the product's
  /// shape (checked per multiply against the actual operands — dims always,
  /// full structure under validate_inputs); only its pattern matters, values
  /// are ignored. Shared, so configs stay cheap to copy; the mask's pattern
  /// hash joins the plan fingerprint, letting masked plans replay through
  /// the plan cache like any fixed-pattern multiply. Equivalent to calling
  /// Speck::multiply_masked explicitly.
  std::shared_ptr<const Csr> mask;
  /// Deterministic fault injection (docs/robustness.md). Default: no
  /// faults. Any injected fault may only change the simulated cost and
  /// planning — the numeric result stays exact — or surface as a typed
  /// ResourceExhausted-style failure.
  FaultSpec faults;
};

/// Validates a configuration; throws InvalidArgument with a description of
/// the first violated constraint. Called by the Speck constructor.
void validate(const SpeckConfig& config);

/// One-line-per-field human-readable dump of a configuration.
std::string describe(const SpeckConfig& config);

}  // namespace speck
