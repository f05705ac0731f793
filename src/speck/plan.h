// Structure-reuse fast path: a frozen SpeckPlan for repeated multiplies
// with a fixed sparsity pattern.
//
// Iterative workloads (AMG setup, graph contraction, Newton steps) multiply
// the *same* pattern dozens of times with changing values. What a replay
// needs of spECK's structure-only work — the exact pattern of C in its sorted
// order and one start bit per row — is captured here once, so subsequent
// multiplies run a values-only replay that skips analysis, global load
// balancing, the symbolic pass and sorting entirely (the cost model then charges only the numeric kernels,
// mirroring the amortizable share of Fig. 11's stage split). The plan
// carries a structural fingerprint so a stale plan is detected and falls
// back to the full pipeline instead of producing wrong values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csr.h"
#include "sim/launch.h"
#include "speck/config.h"
#include "speck/global_lb.h"
#include "speck/kernels.h"

namespace speck {

/// Cheap structural identity of a planned (A, B, config) triple. The scalar
/// fields are O(1) to compare; the pattern hashes cover row_offsets and
/// col_indices of both inputs and are only computed (and compared) where an
/// O(nnz) check is wanted.
struct PlanFingerprint {
  index_t a_rows = 0, a_cols = 0, b_rows = 0, b_cols = 0;
  offset_t a_nnz = 0, b_nnz = 0;
  /// Hash over the SpeckConfig fields that affect planning (thresholds,
  /// features, fill/density knobs, fault spec — not host_threads,
  /// validate_inputs or the plan-cache switches).
  std::uint64_t config_hash = 0;
  /// csr_pattern_hash of each input; 0 when not computed.
  std::uint64_t a_pattern_hash = 0;
  std::uint64_t b_pattern_hash = 0;

  /// Masked multiplies: the output mask joins the structural identity — a
  /// masked plan must never replay an unmasked product (or one under a
  /// different mask), and vice versa. The mask is structure-only like A and
  /// B: only its pattern enters (values of the mask never matter).
  bool masked = false;
  index_t mask_rows = 0, mask_cols = 0;
  offset_t mask_nnz = 0;
  std::uint64_t mask_pattern_hash = 0;

  /// O(1): dimensions, nnz, mask dimensions and the planning-config hash.
  bool matches_quick(const PlanFingerprint& o) const {
    return a_rows == o.a_rows && a_cols == o.a_cols && b_rows == o.b_rows &&
           b_cols == o.b_cols && a_nnz == o.a_nnz && b_nnz == o.b_nnz &&
           config_hash == o.config_hash && masked == o.masked &&
           mask_rows == o.mask_rows && mask_cols == o.mask_cols &&
           mask_nnz == o.mask_nnz;
  }

  /// Quick check plus the O(nnz) pattern hashes (all sides computed).
  bool matches_full(const PlanFingerprint& o) const {
    return matches_quick(o) && a_pattern_hash == o.a_pattern_hash &&
           b_pattern_hash == o.b_pattern_hash &&
           mask_pattern_hash == o.mask_pattern_hash;
  }
};

/// Hash of the planning-relevant SpeckConfig fields (see PlanFingerprint).
std::uint64_t planning_config_hash(const SpeckConfig& cfg);

/// 64-bit hash of a matrix's shape, row_offsets and col_indices (values are
/// deliberately excluded — the whole point is that only structure matters).
/// Each array is hashed in four lanes of 16-byte multiply-mix steps, so
/// hashing runs at memory speed.
std::uint64_t csr_pattern_hash(const Csr& m);

/// Fingerprint of (a, b) under `cfg`. `with_pattern_hashes` = false skips
/// the O(nnz) hashing and leaves the hash fields 0 (use with matches_quick).
/// An operand passed twice (by address) is hashed once.
PlanFingerprint plan_fingerprint(const Csr& a, const Csr& b,
                                 const SpeckConfig& cfg,
                                 bool with_pattern_hashes = true);

/// Fingerprint of a *masked* product (a, b, mask) under `cfg`: the unmasked
/// fingerprint plus the mask's dimensions, nnz and pattern hash.
PlanFingerprint plan_fingerprint_masked(const Csr& a, const Csr& b,
                                        const Csr& mask, const SpeckConfig& cfg,
                                        bool with_pattern_hashes = true);

/// The plan-cache key of (a, b): plan_fingerprint_masked when `mask` is
/// non-null, plan_fingerprint otherwise. Masked and unmasked structures
/// never collide. Every plan lookup (Speck, SpeckService, multiply_chain)
/// keys by this.
PlanFingerprint plan_fingerprint(const Csr& a, const Csr& b, const Csr* mask,
                                 const SpeckConfig& cfg,
                                 bool with_pattern_hashes = true);

/// Per-run diagnostics beyond the common SpGemmResult (used by tests and
/// the ablation benchmarks).
struct SpeckDiagnostics {
  bool symbolic_lb_used = false;
  bool numeric_lb_used = false;
  /// Inputs to the Table 2 decision rule (consumed by the auto-tuner).
  LbDecisionStats symbolic_decision;
  LbDecisionStats numeric_decision;
  PassStats symbolic;
  PassStats numeric;
  offset_t products = 0;
  offset_t radix_sorted_elements = 0;
  int symbolic_blocks = 0;
  int numeric_blocks = 0;
  bool wide_keys = false;
  /// True when the multiply ran the values-only replay of a SpeckPlan
  /// instead of the full pipeline.
  bool plan_used = false;
  /// True when the replay was triggered by Speck's transparent LRU plan
  /// cache (as opposed to an explicit multiply_with_plan call).
  bool plan_cache_hit = false;
  /// True when multiply_with_plan rejected its plan (stale fingerprint,
  /// incomplete plan) and fell back to the full pipeline.
  bool plan_fallback = false;
  std::string plan_fallback_reason;
  /// True when planning ran in estimated mode (resolved
  /// SpeckConfig::planning): the symbolic pass was skipped and binning /
  /// allocation ran off sampled NNZ estimates. The exact pattern of C is
  /// discovered by the numeric pass either way; see
  /// numeric.estimate_underflow_rows for the rows whose estimate
  /// underflowed and re-ran through the exact fallback.
  bool estimated_planning = false;
  /// True when the multiply ran the output-masked pipeline (multiply_masked
  /// or SpeckConfig::mask): no symbolic pass, no sorting pass, accumulators
  /// sized off min(products, mask_row_nnz).
  bool masked = false;
  /// Two-level executor telemetry (docs/performance.md "NUMA scale-out"),
  /// accumulated over every partitioned pass of the multiply. Empty vectors
  /// with partitions == 1 (the flat executor). Schedule-dependent — team
  /// seconds, steal counts, imbalance — and therefore deliberately outside
  /// the bit-identity-gated PassStats counters.
  PartitionDiag partition;
};

/// Frozen pattern-dependent state of one (A, B, config) structure: what its
/// values-only replay reads — the exact pattern of C, the per-row start bits
/// and the full run's observables. The planning state that produced them
/// (row analysis, bin plans, symbolic row counts) is an input to one
/// multiply and is not kept. Build with Speck::plan(); consume with
/// Speck::multiply_with_plan() — or let Speck's transparent cache do both.
struct SpeckPlan {
  PlanFingerprint fingerprint;

  /// False when the structure could not be captured (failed pipeline run);
  /// multiply_with_plan then falls back.
  bool complete = false;
  std::string incomplete_reason;

  /// The exact pattern of C from the symbolic + numeric passes, already in
  /// final (sorted) order — replays write values straight into it.
  std::vector<offset_t> c_row_offsets;
  std::vector<index_t> c_col_indices;

  /// Per-row start bits and product count of the values-only replay, which
  /// finds each product's slot in the C pattern above.
  NumericReplayProgram program;

  /// Full-run observables captured at plan time. The pipeline is a
  /// deterministic function of structure and config — values never steer
  /// control flow — so a replay reports these verbatim and they are
  /// bit-identical to what a full run on the same structure would produce
  /// (only numeric.hot_path_allocs is overridden with the live replay
  /// count, keeping the zero-allocation gate honest).
  SpeckDiagnostics diagnostics;
  double numeric_seconds = 0.0;
  double sorting_seconds = 0.0;
  /// The numeric + radix-sort launches of the capturing run, replayed into
  /// Speck::last_trace() on every reuse.
  std::vector<sim::LaunchResult> replay_trace;

  offset_t c_nnz() const {
    return c_row_offsets.empty() ? 0 : c_row_offsets.back();
  }

  /// Allocated host-memory footprint of the full cached plan — C pattern
  /// arrays, replay start bits, captured diagnostics tail and replay trace
  /// (capacity-based; drives the plan cache's byte budget).
  std::size_t byte_size() const;
};

/// Pre-planning upper bound on the byte_size() a plan for (a, b) will have:
/// what the cache admission check and the worth-caching guard charge before
/// spending any planning work. O(nnz(A)).
std::size_t estimate_plan_bytes(const Csr& a, const Csr& b);

}  // namespace speck
