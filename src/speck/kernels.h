// Symbolic and numeric SpGEMM kernel execution over a block plan
// (paper §4.3). Results are exact; device cycles are charged per block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "matrix/csr.h"
#include "sim/launch.h"
#include "sim/trace.h"
#include "speck/config.h"
#include "speck/global_lb.h"
#include "speck/row_analysis.h"
#include "speck/workspace.h"

namespace speck {

/// Scale-out telemetry of the two-level executor, accumulated across every
/// partitioned pass of a multiply (docs/performance.md "NUMA scale-out").
/// Deliberately separate from PassStats: everything here depends on the
/// schedule — wall-clock seconds, which team's lanes claimed which chunks —
/// and must never enter the bit-identity gates.
struct PartitionDiag {
  /// Resolved partition count of the run (1 = flat executor, struct empty).
  int partitions = 1;
  /// Per-team chunks executed / chunks claimed from foreign partitions /
  /// longest single-pass lane wall time, summed (seconds: summed maxima)
  /// over all partitioned pass loops of the multiply.
  std::vector<std::size_t> team_chunks;
  std::vector<std::size_t> team_steals;
  std::vector<double> team_seconds;
  /// NUMA node each team's lanes last reported running on (-1 unknown — a
  /// non-Linux host, or a team whose lanes never ran). Like every field
  /// here this is schedule telemetry: the OS may migrate threads between
  /// passes, so the value is the last observation, not a binding.
  std::vector<int> team_numa_nodes;

  std::size_t steal_count() const {
    std::size_t total = 0;
    for (const std::size_t s : team_steals) total += s;
    return total;
  }
  /// Max over teams of team_seconds divided by the team average (1.0 =
  /// perfectly balanced, 0 when nothing ran partitioned).
  double imbalance_ratio() const {
    if (team_seconds.empty()) return 0.0;
    double max = 0.0;
    double sum = 0.0;
    for (const double s : team_seconds) {
      max = max > s ? max : s;
      sum += s;
    }
    const double avg = sum / static_cast<double>(team_seconds.size());
    return avg > 0.0 ? max / avg : 0.0;
  }
  void merge(const PartitionedRunDiag& run) {
    if (team_chunks.size() < run.team_chunks.size()) {
      team_chunks.resize(run.team_chunks.size(), 0);
      team_steals.resize(run.team_steals.size(), 0);
      team_seconds.resize(run.team_seconds.size(), 0.0);
      team_numa_nodes.resize(run.team_chunks.size(), -1);
    }
    for (std::size_t t = 0; t < run.team_chunks.size(); ++t) {
      team_chunks[t] += run.team_chunks[t];
      team_steals[t] += run.team_steals[t];
      team_seconds[t] += run.team_seconds[t];
      if (t < run.team_numa_nodes.size() && run.team_numa_nodes[t] >= 0) {
        team_numa_nodes[t] = run.team_numa_nodes[t];
      }
    }
  }
};

/// Everything the kernels need; non-owning.
struct KernelContext {
  const Csr* a = nullptr;
  const Csr* b = nullptr;
  /// Output mask of a masked multiply (GraphBLAS structural semantics:
  /// only mask positions may appear in C); null on unmasked runs. Set by
  /// Speck::multiply_masked before the masked numeric pass.
  const Csr* mask = nullptr;
  const RowAnalysis* analysis = nullptr;
  const SpeckConfig* cfg = nullptr;
  const std::vector<KernelConfig>* configs = nullptr;
  const sim::DeviceSpec* device = nullptr;
  const sim::CostModel* model = nullptr;
  /// True when B has more than 2^27 columns and 64-bit keys are required.
  bool wide_keys = false;
  /// Optional: every simulated launch is recorded here (may be null).
  sim::LaunchTrace* trace = nullptr;
  /// Host thread pool the passes parallelize over (global pool when null).
  ThreadPool* pool = nullptr;
  /// Per-worker kernel workspaces reused across blocks and multiplies.
  /// Optional: when null the passes fall back to a pass-local pool (warm-up
  /// cost every call, results identical either way).
  WorkspacePool* workspaces = nullptr;
  /// Optional fault injection (may be null). Shrinks the scratchpad
  /// capacities the kernels actually get relative to what binning assumed,
  /// and caps how many entries a block's scratchpad map takes before it
  /// spills to the global map — both only reroute rows onto the spill and
  /// fallback paths; the numeric result stays exact.
  const FaultInjector* faults = nullptr;
  /// Resolved SIMD backend (never kAuto) the kernel hot loops dispatch on.
  /// Changes throughput only: results and counters are backend-independent.
  SimdBackend simd = SimdBackend::kScalar;
  /// Resolved partition count of the two-level executor (never 0; 1 = the
  /// flat single-cursor path, bit-for-bit today's behavior). Like the SIMD
  /// backend, partitioning changes host wall time only.
  int partitions = 1;
  /// Cross-partition work stealing (vs ascending-order helping).
  bool partition_steal = true;
  /// Optional: schedule telemetry sink for partitioned passes (may be null).
  PartitionDiag* partition_diag = nullptr;
  /// Optional: partition-local workspace pools. When null and partitions > 1
  /// the pass driver falls back to a pass-local set (results identical).
  PartitionWorkspaces* team_workspaces = nullptr;

  /// Scratchpad capacity after fault injection (identity when none).
  std::size_t effective_capacity(std::size_t capacity) const {
    return faults != nullptr ? faults->scratchpad_capacity(capacity) : capacity;
  }

  /// Exact intermediate-product count of row `row` of A·B. Without faults
  /// that is the analysis count; a fault injector perturbs those, so then
  /// the row is recounted from the CSR structure.
  offset_t exact_products(index_t row) const {
    if (faults == nullptr) return analysis->products[static_cast<std::size_t>(row)];
    offset_t products = 0;
    for (const index_t k : a->row_cols(row)) products += b->row_length(k);
    return products;
  }
};

/// Accumulation method chosen for a row (paper: direct referencing, dense
/// accumulation, or hashing).
enum class RowMethod { kDirect, kDense, kHash };

/// Per-pass statistics shared by the symbolic and numeric outcomes.
struct PassStats {
  double seconds = 0.0;
  offset_t direct_rows = 0;
  offset_t dense_rows = 0;
  offset_t hash_rows = 0;
  /// Blocks that spilled their hash map to global memory.
  int global_hash_blocks = 0;
  /// Bytes pre-allocated for the global hash-map pool.
  std::size_t global_pool_bytes = 0;
  /// Total linear-probing steps over all scratchpad hash maps.
  std::size_t hash_probes = 0;
  /// Entries bulk-moved from scratchpad maps into the global fallback.
  std::size_t moved_entries = 0;
  /// Inserts performed directly against the global fallback map.
  std::size_t global_inserts = 0;
  /// Heap allocations observed inside block bodies (0 unless the binary
  /// installs the counting allocator of common/alloc_counter.h; 0 in the
  /// steady state either way — the zero-allocation hot-path gate).
  std::size_t hot_path_allocs = 0;
  /// Estimated planning only: rows whose sampled NNZ estimate underflowed
  /// the actual row size, forcing the per-row exact fallback re-run
  /// (docs/performance.md "Estimated planning"). Always 0 in exact mode.
  offset_t estimate_underflow_rows = 0;
};

struct SymbolicOutcome {
  /// Exact NNZ of every row of C.
  std::vector<index_t> row_nnz;
  PassStats stats;
};

/// Runs the symbolic pass over the given block plan.
SymbolicOutcome run_symbolic(const KernelContext& ctx, const BinPlan& plan);

/// Result of every numeric pass: exact, estimated and masked.
struct NumericOutcome {
  Csr c;
  /// Exact NNZ per row of C, discovered by the estimated and masked passes
  /// (empty after run_numeric, whose caller passed the symbolic counts in).
  std::vector<index_t> row_nnz;
  PassStats stats;
  /// Simulated seconds of the separate radix-sort pass for rows the large
  /// hash kernels emitted unsorted (0 when no such rows exist).
  double sorting_seconds = 0.0;
  /// Elements that went through the separate radix pass.
  offset_t radix_sorted_elements = 0;
};

/// Runs the numeric pass; `row_nnz` comes from the symbolic outcome.
NumericOutcome run_numeric(const KernelContext& ctx, const BinPlan& plan,
                           std::span<const index_t> row_nnz);

/// What a values-only replay needs beyond the frozen C pattern: one start
/// bit per row of C and the product count. The replay walks A's and B's CSR
/// structure in the order the numeric kernels accumulate (rows of A outer,
/// referenced rows of B inner) and finds each product's slot through a
/// column map scattered from the row's C columns — Gustavson with a known
/// output pattern, so no per-product state is stored.
///
/// The start bit reproduces each row's first-touch semantics: hash and
/// direct rows *assign* their first contribution to a slot, dense rows and
/// every masked row add into a zero-initialized window. A replay starts
/// assign-first rows from -0.0, IEEE's exact additive identity
/// (-0.0 + p == p bit for bit, signed zeros included), and the others from
/// +0.0, then always adds — which keeps replayed values bit-identical to a
/// full numeric pass.
struct NumericReplayProgram {
  /// Per row of C: 1 when the row's method assigns its first product (the
  /// replay starts its slots from -0.0), 0 when it adds into zeros.
  std::vector<std::uint8_t> assign_first;
  /// Intermediate products of A * B (off-mask ones included).
  std::size_t products = 0;

  std::size_t ops() const { return products; }
  /// Allocated (capacity-based) host footprint — what the plan cache's byte
  /// budget is charged for.
  std::size_t byte_size() const { return assign_first.capacity(); }
};

/// Replays the program against fresh values of (a, b), writing every slot
/// of `out` (sized to the frozen C pattern's nnz) — no prior zero fill is
/// needed. With `append` set, `out` is unused and the values are appended
/// to `*append` instead (empty, with capacity for the C pattern's nnz): on
/// a 1-thread pool row by row, so each value is written once and never
/// zero-filled first. Pattern-independent work only: no analysis, no
/// hashing, no sorting. Parallelized over `pool` with fixed chunking, so results are
/// bit-identical at any thread count. A 1-thread pool runs every row inline
/// on the calling thread — the service replay path, where many client
/// threads each replay their own request and intra-request parallelism
/// would only add contention. Each thread keeps one grow-only column map;
/// it grows, at most once per thread and B width, before the allocation
/// count starts. Returns the heap allocations observed inside the replay
/// loop (the zero-allocation hot-path metric; always 0 — the loop owns no
/// containers).
std::size_t replay_numeric_values(const Csr& a, const Csr& b,
                                  const NumericReplayProgram& program,
                                  std::span<const offset_t> c_row_offsets,
                                  std::span<const index_t> c_col_indices,
                                  ThreadPool* pool, std::span<value_t> out,
                                  std::vector<value_t>* append = nullptr);

/// Method selection, exposed for tests.
RowMethod choose_symbolic_method(const KernelContext& ctx, index_t row,
                                 bool merged_block, const KernelConfig& config);
RowMethod choose_numeric_method(const KernelContext& ctx, index_t row,
                                index_t row_nnz, bool merged_block,
                                int config_index);

}  // namespace speck
