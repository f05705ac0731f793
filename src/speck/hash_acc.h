// Scratchpad hash accumulators with global-memory spill (paper §4.3
// "Sparse Rows of C"). Wraps the linear-probing DeviceHashMap: when the
// local map fills — only possible for rows the binning could not bound,
// i.e. largest-configuration rows — all entries move to a global-memory
// map (a flat open-addressing FlatSpillMap) and accumulation continues
// there. Both flavours count the operations the cost model charges (probes,
// moved entries, global inserts). The passes call one segment entry point
// per A entry, over the referenced B row; it runs the whole row through the
// map's runner, which checks the entry limit (capacity or forced spill, set
// once per block) before each key. The per-key calls are one-key segments.
//
// Accumulators are designed for reuse: a per-worker KernelWorkspace holds
// one of each and calls `begin_block()` before every block, which re-targets
// the scratchpad capacity and clears both maps while keeping their grown
// storage: the scratchpad map returns only the slots the last block claimed
// to empty, the spill map bumps its epoch tag. After warm-up no block
// allocates.
#pragma once

#include <span>

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

  /// Adds `key` to the block's set; returns true when it was new.
  bool insert(key64_t key) {
    return insert_keys(1, [key](std::size_t) { return key; }) != 0;
  }

  /// Adds `row_bits | col` for each column of a B row segment — the
  /// symbolic pass's call per A entry, `row_bits` being
  /// compound_key(local_row, 0, wide). Returns how many keys were new, so a
  /// caller counts each local row's distinct keys as it inserts them.
  std::size_t insert_segment(key64_t row_bits, std::span<const index_t> cols) {
    return insert_keys(cols.size(), [row_bits, cols](std::size_t j) {
      return row_bits | static_cast<std::uint32_t>(cols[j]);
    });
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
  /// Inserts key_at(0..n) in order; returns how many were new. The local
  /// run stops at the entry limit; the map spills right after the insert
  /// that fills it (binning sizes maps so that only happens for the
  /// unbounded largest-configuration rows), or before the first key past a
  /// forced limit, and the remaining keys go to the spill map.
  template <typename KeyAt>
  std::size_t insert_keys(std::size_t n, KeyAt key_at) {
    std::size_t added = 0;
    std::size_t j = 0;
    if (!in_global_) {
      j = local_.insert_run</*kZeroValue=*/false>(n, local_limit_, key_at, added);
      if (local_.full() || j < n) spill();
    }
    for (; j < n; ++j) {
      ++global_inserts_;
      if (global_.insert(key_at(j))) ++added;
    }
    return added;
  }

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

  /// Adds `value` into `key`'s sum.
  void accumulate(key64_t key, value_t value) {
    accumulate_keys(1, [key](std::size_t) { return key; },
                    [value](std::size_t) { return value; });
  }

  /// Adds `av * vals[j]` into the sum of `row_bits | cols[j]` for each
  /// entry of a B row segment — the numeric pass's call per A entry.
  void accumulate_segment(key64_t row_bits, std::span<const index_t> cols,
                          std::span<const value_t> vals, value_t av) {
    accumulate_keys(
        cols.size(),
        [row_bits, cols](std::size_t j) {
          return row_bits | static_cast<std::uint32_t>(cols[j]);
        },
        [av, vals](std::size_t j) { return av * vals[j]; });
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
  /// Accumulates value_at(j) into key_at(j) for j < n, spilling like
  /// SymbolicHashAccumulator::insert_keys.
  template <typename KeyAt, typename ValueAt>
  void accumulate_keys(std::size_t n, KeyAt key_at, ValueAt value_at) {
    std::size_t j = 0;
    if (!in_global_) {
      j = local_.accumulate_run(n, local_limit_, key_at, value_at);
      if (local_.full() || j < n) spill();
    }
    for (; j < n; ++j) {
      ++global_inserts_;
      global_.accumulate(key_at(j), value_at(j));
    }
  }

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
/// products are streamed with `accumulate_segment()` — a non-mask column
/// misses its probe and is dropped without claiming a slot, so the map never
/// holds more than the mask row's nnz. Extraction probes the mask columns
/// back in order with `lookup_segment()`, which distinguishes "mask column
/// some product landed on" (emit, even a computed zero) from "mask column
/// no product touched" (drop).
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
  void seed(key64_t key) {
    seed_keys(1, [key](std::size_t) { return key; });
  }

  /// seed(row_bits | col) for each column of a mask row.
  void seed_segment(key64_t row_bits, std::span<const index_t> cols) {
    seed_keys(cols.size(), [row_bits, cols](std::size_t j) {
      return row_bits | static_cast<std::uint32_t>(cols[j]);
    });
  }

  /// Adds `value` into `key`'s slot iff the key was seeded; marks it
  /// touched. Non-mask keys are dropped (their probe is still counted).
  void accumulate(key64_t key, value_t value) {
    accumulate_keys(1, [key](std::size_t) { return key; },
                    [value](std::size_t) { return value; });
  }

  /// accumulate(row_bits | cols[j], av * vals[j]) for each entry of a B
  /// row segment — the masked pass's call per A entry.
  void accumulate_segment(key64_t row_bits, std::span<const index_t> cols,
                          std::span<const value_t> vals, value_t av) {
    accumulate_keys(
        cols.size(),
        [row_bits, cols](std::size_t j) {
          return row_bits | static_cast<std::uint32_t>(cols[j]);
        },
        [av, vals](std::size_t j) { return av * vals[j]; });
  }

  /// True (with the accumulated sum) iff `key` was seeded and touched.
  bool lookup_touched(key64_t key, value_t* value) {
    bool hit = false;
    lookup_keys(1, [key](std::size_t) { return key; },
                [&](std::size_t, value_t sum) {
                  *value = sum;
                  hit = true;
                });
    return hit;
  }

  /// Calls emit(j, sum) for each column j of a mask row, in order, whose
  /// key row_bits | cols[j] was seeded and touched — the masked pass's
  /// extraction.
  template <typename Emit>
  void lookup_segment(key64_t row_bits, std::span<const index_t> cols, Emit emit) {
    lookup_keys(
        cols.size(),
        [row_bits, cols](std::size_t j) {
          return row_bits | static_cast<std::uint32_t>(cols[j]);
        },
        emit);
  }

  bool spilled() const { return in_global_; }
  std::size_t probes() const { return local_.probes(); }
  std::size_t moved_entries() const { return moved_entries_; }
  std::size_t global_inserts() const { return global_inserts_; }

 private:
  /// Seeds key_at(0..n), spilling like SymbolicHashAccumulator::insert_keys.
  template <typename KeyAt>
  void seed_keys(std::size_t n, KeyAt key_at) {
    std::size_t seeded = 0;
    std::size_t j = 0;
    if (!in_global_) {
      j = local_.seed_run(n, local_limit_, key_at, seeded);
      if (local_.full() || j < n) spill();
    }
    for (; j < n; ++j) {
      ++global_inserts_;
      global_.seed(key_at(j));
    }
  }

  template <typename KeyAt, typename Emit>
  void lookup_keys(std::size_t n, KeyAt key_at, Emit emit) {
    if (!in_global_) {
      local_.lookup_run(n, key_at, emit);
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      value_t sum = 0.0;
      if (global_.lookup_touched(key_at(j), &sum)) emit(j, sum);
    }
  }

  template <typename KeyAt, typename ValueAt>
  void accumulate_keys(std::size_t n, KeyAt key_at, ValueAt value_at) {
    if (!in_global_) {
      local_.accumulate_if_present_run(n, key_at, value_at);
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      global_.accumulate_if_present(key_at(j), value_at(j));
    }
  }

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
