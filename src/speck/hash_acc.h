// Scratchpad hash accumulators with global-memory spill (paper §4.3
// "Sparse Rows of C"). Wraps the linear-probing DeviceHashMap: when the
// local map fills — only possible for rows the binning could not bound,
// i.e. largest-configuration rows — all entries move to a global-memory
// map (a flat open-addressing FlatSpillMap) and accumulation continues
// there. Both flavours count the operations the cost model charges (probes,
// moved entries, global inserts). The per-product calls are inline: one
// compare against the entry limit (capacity or forced spill, set once per
// block), then the map's inline home-slot probe.
//
// Accumulators are designed for reuse: a per-worker KernelWorkspace holds
// one of each and calls `begin_block()` before every block, which re-targets
// the scratchpad capacity and clears both maps while keeping their grown
// storage: the scratchpad map returns only the slots the last block claimed
// to empty, the spill map bumps its epoch tag. After warm-up no block
// allocates.
#pragma once

#include "common/fault_injection.h"
#include "speck/flat_map.h"
#include "speck/hash_map.h"

namespace speck {

/// Symbolic accumulator: tracks distinct compound keys only.
/// The optional FaultInjector can force the spill early (tests drive the
/// global-fallback path on demand); contents stay exact either way.
class SymbolicHashAccumulator {
 public:
  /// Reusable accumulator; `begin_block()` must run before inserts.
  SymbolicHashAccumulator() = default;
  explicit SymbolicHashAccumulator(std::size_t capacity,
                                   const FaultInjector* faults = nullptr,
                                   SimdBackend simd = SimdBackend::kScalar) {
    begin_block(capacity, faults, simd);
  }

  /// Prepares for a new block: scratchpad capacity, fault hook, SIMD
  /// backend, all contents and counters cleared in O(slots the last block
  /// used) after warm-up. The backend only changes probe speed; contents
  /// and counters are identical.
  void begin_block(std::size_t capacity, const FaultInjector* faults,
                   SimdBackend simd = SimdBackend::kScalar);

  /// Adds `key` to the block's set; returns true when it was new, so a
  /// caller counts each local row's distinct keys as it inserts them.
  /// Inline: it is the symbolic pass's per-product call.
  bool insert(key64_t key) {
    if (!in_global_) {
      if (local_.size() < local_limit_) {
        const bool added = local_.insert_key</*kZeroValue=*/false>(key);
        // Preemptively move once completely full: binning sizes maps so
        // this only happens for the unbounded largest-configuration rows.
        if (local_.full()) spill();
        return added;
      }
      spill();
    }
    ++global_inserts_;
    return global_.insert(key);
  }

  /// NNZ per local row (indexed by the compound key's local row field),
  /// counted by walking both maps — the reference the per-insert counts
  /// are checked against.
  std::vector<index_t> row_counts(int rows, bool wide_keys) const;

  bool spilled() const { return in_global_; }
  std::size_t probes() const { return local_.probes(); }
  std::size_t moved_entries() const { return moved_entries_; }
  std::size_t global_inserts() const { return global_inserts_; }
  std::size_t unique_keys() const { return in_global_ ? global_.size() : local_.size(); }

 private:
  void spill();

  DeviceHashMap local_;
  /// Entries the scratchpad map takes before the accumulator spills: the
  /// capacity, or fewer under the hash-overflow-after fault. Set per block.
  std::size_t local_limit_ = 0;
  bool in_global_ = false;
  FlatSpillMap global_;
  std::size_t moved_entries_ = 0;
  std::size_t global_inserts_ = 0;
};

/// Numeric accumulator: sums values per compound key.
class NumericHashAccumulator {
 public:
  /// Reusable accumulator; `begin_block()` must run before accumulates.
  NumericHashAccumulator() = default;
  explicit NumericHashAccumulator(std::size_t capacity,
                                  const FaultInjector* faults = nullptr,
                                  SimdBackend simd = SimdBackend::kScalar) {
    begin_block(capacity, faults, simd);
  }

  /// Prepares for a new block: scratchpad capacity, fault hook, SIMD
  /// backend, all contents and counters cleared in O(slots the last block
  /// used) after warm-up. The backend only changes probe speed; contents
  /// and counters are identical.
  void begin_block(std::size_t capacity, const FaultInjector* faults,
                   SimdBackend simd = SimdBackend::kScalar);

  /// Adds `value` into `key`'s sum. Inline: it is the numeric pass's
  /// per-product call.
  void accumulate(key64_t key, value_t value) {
    if (!in_global_) {
      if (local_.size() < local_limit_) {
        local_.accumulate(key, value);
        if (local_.full()) spill();
        return;
      }
      spill();
    }
    ++global_inserts_;
    global_.accumulate(key, value);
  }

  /// All (key, value) pairs, unsorted (local map in slot order, then the
  /// spill map in slot order), appended into the caller's buffer after a
  /// clear(). The buffer's capacity is reused across calls.
  void extract_into(std::vector<DeviceHashMap::Entry>& out) const;

  /// Convenience wrapper allocating the entry vector.
  std::vector<DeviceHashMap::Entry> extract() const;

  std::size_t entry_count() const { return local_.size() + global_.size(); }

  bool spilled() const { return in_global_; }
  std::size_t probes() const { return local_.probes(); }
  std::size_t moved_entries() const { return moved_entries_; }
  std::size_t global_inserts() const { return global_inserts_; }

 private:
  void spill();

  DeviceHashMap local_;
  /// Entries the scratchpad map takes before the accumulator spills: the
  /// capacity, or fewer under the hash-overflow-after fault. Set per block.
  std::size_t local_limit_ = 0;
  bool in_global_ = false;
  FlatSpillMap global_;
  std::size_t moved_entries_ = 0;
  std::size_t global_inserts_ = 0;
};

/// Masked accumulator (paper-style scratchpad map in GraphBLAS masked mode):
/// the mask columns are pre-seeded as the *only* admissible keys, then
/// products are streamed with `accumulate()` — a non-mask column misses its
/// probe and is dropped without claiming a slot, so the map never holds more
/// than the mask row's nnz. Extraction probes the mask columns back in
/// order with `lookup_touched()`, which distinguishes "mask column some
/// product landed on" (emit, even a computed zero) from "mask column no
/// product touched" (drop).
///
/// Spill can only trigger while seeding (capacity pressure — or the
/// fault-injection overflow hook — is decided by the seed count; streaming
/// and lookups never insert): seeded keys move to the global FlatSpillMap
/// and all later seeds, accumulates and lookups go there.
class MaskedNumericAccumulator {
 public:
  /// Reusable accumulator; `begin_block()` must run before seeds.
  MaskedNumericAccumulator() = default;

  /// Prepares for a new block: scratchpad capacity, fault hook, SIMD
  /// backend, all contents and counters cleared in O(slots the last block
  /// used) after warm-up. The backend only changes probe speed; contents
  /// and counters are identical.
  void begin_block(std::size_t capacity, const FaultInjector* faults,
                   SimdBackend simd = SimdBackend::kScalar);

  /// Admits `key` (a mask column) as an accumulation target.
  void seed(key64_t key);

  /// Adds `value` into `key`'s slot iff the key was seeded; marks it
  /// touched. Non-mask keys are dropped (their probe is still counted).
  /// Inline: it is the masked pass's per-product call.
  void accumulate(key64_t key, value_t value) {
    if (!in_global_) {
      local_.accumulate_if_present(key, value);
      return;
    }
    global_.accumulate_if_present(key, value);
  }

  /// True (with the accumulated sum) iff `key` was seeded and touched.
  bool lookup_touched(key64_t key, value_t* value);

  bool spilled() const { return in_global_; }
  std::size_t probes() const { return local_.probes(); }
  std::size_t moved_entries() const { return moved_entries_; }
  std::size_t global_inserts() const { return global_inserts_; }

 private:
  void spill();

  DeviceHashMap local_;
  /// Entries the scratchpad map takes before the accumulator spills: the
  /// capacity, or fewer under the hash-overflow-after fault. Set per block.
  std::size_t local_limit_ = 0;
  bool in_global_ = false;
  FlatSpillMap global_;
  std::size_t moved_entries_ = 0;
  std::size_t global_inserts_ = 0;
};

}  // namespace speck
