// Flat open-addressing spill map — the global-memory fallback storage of the
// hash accumulators (paper §4.3 "Sparse Rows of C").
//
// Replaces the node-based std::unordered_set/std::unordered_map the
// accumulators used to spill into: one contiguous slot array, linear
// probing, power-of-two capacity, and epoch-tagged slot groups so `clear()`
// is O(1) and a per-worker workspace can reuse the same map (and its grown
// capacity) across every block it executes. Spilling is rare — only rows the
// binning could not bound reach it — but when it fires it used to dominate
// the block's allocation count; with this map the steady-state spill path
// allocates nothing.
//
// Layout mirrors DeviceHashMap: Swiss-table-style control bytes (a 7-bit
// hash tag per occupied slot, kEmpty otherwise) in 16-byte groups over SoA
// key/value arrays. The SIMD backends compare a whole group per instruction;
// the scalar backend walks the same bytes one at a time. Both visit the same
// probe sequence and claim the same slots, so contents and iteration order
// are bit-identical across backends. Group epochs are lazily re-materialized
// after `clear()`, keeping the O(1)-reset invariant from the epoch-tagged
// design this layout replaces.
//
// Iteration order is slot order. The accumulators only consume it through
// order-insensitive reductions (per-row counts, per-key sums later sorted by
// their unique keys), so simulated cost and numeric output stay bit-identical
// regardless of the layout.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/simd.h"
#include "common/types.h"

namespace speck {

class FlatSpillMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots currently reserved (diagnostic; persists across clear()).
  std::size_t slot_count() const { return slot_count_; }

  /// SIMD backend used by the probe loops (must be resolved, never kAuto).
  void set_backend(SimdBackend backend) { backend_ = backend; }

  /// Membership insert (symbolic spill). Returns true when the key was new.
  bool insert(key64_t key);

  /// Adds `value` to the slot for `key`; a new key takes `value` itself
  /// (numeric spill).
  void accumulate(key64_t key, value_t value);

  /// Masked-insert mode: pre-seeds `key` as an admissible slot (value zero,
  /// untouched), growing like any other insert. Returns true when new.
  bool seed(key64_t key);

  /// Masked accumulate: adds into `key`'s slot only when it was seeded,
  /// marking it touched; a miss claims nothing and never grows the table.
  bool accumulate_if_present(key64_t key, value_t value);

  /// Reads a seeded slot back: true (with the sum in `*value`) iff the slot
  /// was touched since seeding. Never grows the table.
  bool lookup_touched(key64_t key, value_t* value);

  /// Visits every occupied slot in slot order with fn(key, value). Whole
  /// stale groups (untouched since the last clear) are skipped 16 slots at
  /// a time. The vector backends reduce each group to one occupied-lane
  /// mask and walk its set bits ascending — the same slot order as the
  /// scalar byte scan.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t groups = slot_count_ / simd::kGroupWidth;
    if (backend_ != SimdBackend::kScalar) {
      for (std::size_t g = 0; g < groups; ++g) {
        if (group_epoch_[g] != epoch_) continue;
        const std::size_t base = g * simd::kGroupWidth;
        std::uint32_t occ = simd::occupied_mask16(ctrl_.data() + base, backend_);
        while (occ != 0) {
          const unsigned p = simd::lowest_bit(occ);
          fn(keys_[base + p], vals_[base + p]);
          occ &= occ - 1;
        }
      }
      return;
    }
    for (std::size_t g = 0; g < groups; ++g) {
      if (group_epoch_[g] != epoch_) continue;
      const std::size_t base = g * simd::kGroupWidth;
      for (std::size_t i = base; i < base + simd::kGroupWidth; ++i) {
        if (ctrl_[i] < kCtrlEmpty) fn(keys_[i], vals_[i]);
      }
    }
  }

  /// Forgets all entries, keeping the grown slot storage. O(1).
  void clear();

 private:
  static constexpr std::uint8_t kCtrlEmpty = 0x80;
  static constexpr std::uint64_t kHashPrime = 0x9E3779B97F4A7C15ull;

  /// Multiplicative hash; the high bits feed the power-of-two mask.
  std::size_t slot_for(std::uint64_t h) const {
    return static_cast<std::size_t>(h >> 32) & (slot_count_ - 1);
  }
  static std::uint8_t hash_tag(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }

  void materialize_group(std::size_t g) {
    if (group_epoch_[g] == epoch_) return;
    std::memset(ctrl_.data() + g * simd::kGroupWidth, kCtrlEmpty,
                simd::kGroupWidth);
    group_epoch_[g] = epoch_;
  }

  /// Returns the slot holding `key` (claimed == true) or the empty slot to
  /// claim for it (claimed == false), growing first when the load factor
  /// would exceed the limit.
  struct Locate {
    std::size_t index;
    bool present;
  };
  Locate locate(key64_t key);
  /// Probe without the grow step — lookups must not resize the table. The
  /// ≤75% load factor maintained by `locate` guarantees termination.
  Locate find(key64_t key);
  void grow();

  std::vector<std::uint8_t> ctrl_;
  std::vector<std::uint64_t> group_epoch_;
  std::vector<key64_t> keys_;
  std::vector<value_t> vals_;
  /// Masked mode only: 1 iff the seeded slot has been accumulated into.
  /// Written by seed(); carried across grow()'s re-place.
  std::vector<std::uint8_t> touched_;
  std::size_t slot_count_ = 0;  ///< power of two, multiple of kGroupWidth
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
  SimdBackend backend_ = SimdBackend::kScalar;
};

}  // namespace speck
