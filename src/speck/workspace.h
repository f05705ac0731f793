// Per-worker-thread kernel workspaces: the zero-allocation hot path.
//
// Every simulated block needs transient state — a scratchpad hash map, a
// spill map, extraction/sort buffers, dense window arrays, load-balancer
// sweep scratch. Constructing those per block made heap traffic the
// dominant host cost and belied the paper's claim that the per-row kernels
// are lean. A KernelWorkspace owns all of it, one workspace per thread-pool
// worker (ThreadPool::parallel_for guarantees at most one chunk per worker
// id at a time, so no locking): no buffer is cleared in full between blocks
// (the scratchpad hash map resets only the slots a block claimed; the spill
// map and the stamp arrays use epoch tags; vectors clear() with retained
// capacity) and every buffer grows monotonically, so after a warm-up pass
// every block executes without a single heap allocation.
//
// The pool is owned by the Speck instance and survives across multiplies,
// which is what makes repeated iterative workloads (AMG, Markov
// chains) allocation-free in the steady state. Reuse across thread counts is
// safe: the pool only ever grows, and block-to-worker assignment never
// influences results (chunk boundaries are a pure function of the range).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "speck/dense_acc.h"
#include "speck/hash_acc.h"

namespace speck {

/// Starts a new round over a grow-only stamp array: grows `stamps` to at
/// least `size` entries (new entries 0, never a live stamp), refills it
/// when `counter` would wrap, and returns the round's stamp. An entry is
/// marked in this round iff it equals the returned stamp, so the array is
/// never cleared between rounds.
inline std::uint32_t next_stamp(std::vector<std::uint32_t>& stamps,
                                std::uint32_t& counter, std::size_t size) {
  if (stamps.size() < size) stamps.resize(size, 0);
  if (counter == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamps.begin(), stamps.end(), 0);
    counter = 0;
  }
  return ++counter;
}

/// All transient per-block state for one worker thread. Borrow the members
/// directly; every acquisition clears the buffer but keeps its capacity.
class KernelWorkspace {
 public:
  /// Symbolic accumulator reset for a new block of the given capacity.
  SymbolicHashAccumulator& symbolic_acc(std::size_t capacity,
                                        const FaultInjector* faults,
                                        SimdBackend simd = SimdBackend::kScalar) {
    symbolic_.begin_block(capacity, faults, simd);
    return symbolic_;
  }

  /// Numeric accumulator reset for a new block of the given capacity.
  NumericHashAccumulator& numeric_acc(std::size_t capacity,
                                      const FaultInjector* faults,
                                      SimdBackend simd = SimdBackend::kScalar) {
    numeric_.begin_block(capacity, faults, simd);
    return numeric_;
  }

  /// Masked accumulator reset for a new row/block of the given capacity
  /// (the masked numeric pass pre-seeds mask columns into it).
  MaskedNumericAccumulator& masked_acc(std::size_t capacity,
                                       const FaultInjector* faults,
                                       SimdBackend simd = SimdBackend::kScalar) {
    masked_.begin_block(capacity, faults, simd);
    return masked_;
  }

  /// Raw (key, value) entries extracted from a numeric accumulator, and
  /// the second buffer of the radix sort that orders them by key.
  std::vector<DeviceHashMap::Entry>& entries() { return entries_; }
  std::vector<DeviceHashMap::Entry>& sort_scratch() { return sort_scratch_; }

  /// charge_row_sweep scratch: per-group lockstep iteration counts.
  std::vector<std::size_t>& group_iterations() { return group_iterations_; }

  /// charge_row_sweep's unique-B-row stamps (one round per block, see
  /// next_stamp), sized to B's row count, and their counter. The counter
  /// lives here, not in a thread_local, because a workspace may run on
  /// different threads.
  std::vector<std::uint32_t>& sweep_stamps() { return sweep_stamps_; }
  std::uint32_t& sweep_stamp_counter() { return sweep_stamp_counter_; }

  /// Dense-accumulator window/cursor/output buffers.
  DenseScratch& dense() { return dense_; }

  /// Column -> local C-row slot scatter map of the estimated merge pass,
  /// grown to at least `columns` entries (B's column count). It only grows
  /// and is never cleared: estimate_epoch() tells a live entry from a stale
  /// one.
  std::vector<std::uint32_t>& colmap(std::size_t columns) {
    if (colmap_.size() < columns) colmap_.resize(columns);
    return colmap_;
  }

  /// Estimated numeric merge pass: the epoch tag array that makes colmap()
  /// O(1)-resettable per row (an entry is live only when its epoch matches
  /// the current row's stamp, see next_stamp), sized to B's column count,
  /// and its counter.
  std::vector<std::uint32_t>& estimate_epoch() { return estimate_epoch_; }
  std::uint32_t& estimate_epoch_counter() { return estimate_epoch_counter_; }

 private:
  SymbolicHashAccumulator symbolic_;
  NumericHashAccumulator numeric_;
  MaskedNumericAccumulator masked_;
  std::vector<DeviceHashMap::Entry> entries_;
  std::vector<DeviceHashMap::Entry> sort_scratch_;
  std::vector<std::size_t> group_iterations_;
  std::vector<std::uint32_t> sweep_stamps_;
  std::uint32_t sweep_stamp_counter_ = 0;
  DenseScratch dense_;
  std::vector<std::uint32_t> colmap_;
  std::vector<std::uint32_t> estimate_epoch_;
  std::uint32_t estimate_epoch_counter_ = 0;
};

/// Lazily grown set of workspaces indexed by thread-pool worker id: one
/// caller drives a parallel_for and worker ids partition the slots, so no
/// locking is needed. unique_ptr slots keep workspace addresses stable
/// across growth.
class WorkspacePool {
 public:
  /// Guarantees workspaces for worker ids [0, workers). Never shrinks, so
  /// switching between thread counts keeps warm buffers.
  void ensure(int workers);

  /// Workspace of a worker id previously covered by ensure().
  KernelWorkspace& at(int worker) { return *slots_[static_cast<std::size_t>(worker)]; }

  int size() const { return static_cast<int>(slots_.size()); }

 private:
  std::vector<std::unique_ptr<KernelWorkspace>> slots_;
};

/// Partition-local workspace pools for the two-level executor
/// (ThreadPool::partitioned_for): one WorkspacePool per team, indexed by the
/// lane's slot within the team, so each team's lanes touch only their own
/// partition's warm buffers (first-touch placement on NUMA hosts). A lane
/// keeps using its own team's workspace even for stolen chunks — which
/// workspace runs a chunk never influences results, exactly the invariant
/// WorkspacePool already documents for worker ids. Grows monotonically like
/// WorkspacePool: switching partition or thread counts keeps warm buffers.
class PartitionWorkspaces {
 public:
  /// Guarantees `teams` pools with at least `slots_per_team` workspaces
  /// each (each team always has >= 1 slot: the serial path and lane-less
  /// teams use slot 0). Never shrinks.
  void ensure(int teams, int slots_per_team);

  WorkspacePool& team(int t) { return *teams_[static_cast<std::size_t>(t)]; }

  int teams() const { return static_cast<int>(teams_.size()); }

 private:
  std::vector<std::unique_ptr<WorkspacePool>> teams_;  // stable addresses
};

}  // namespace speck
