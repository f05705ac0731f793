// Emulation of the scratchpad hash map with linear probing (paper §4.3,
// Fig. 4). The map computes exact contents while counting probes so that
// the cost model charges real collision behaviour.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "common/types.h"

namespace speck {

/// Builds the compound key: 5 bits of local row index, 27 bits of column.
inline key64_t compound_key(int local_row, index_t col, bool wide_keys) {
  if (wide_keys) {
    return (static_cast<key64_t>(static_cast<std::uint32_t>(local_row)) << 32) |
           static_cast<std::uint32_t>(col);
  }
  return (static_cast<key64_t>(static_cast<std::uint32_t>(local_row)) << 27) |
         static_cast<std::uint32_t>(col);
}

inline index_t key_column(key64_t key, bool wide_keys) {
  return wide_keys ? static_cast<index_t>(key & 0xFFFFFFFFull)
                   : static_cast<index_t>(key & ((key64_t{1} << 27) - 1));
}

inline int key_local_row(key64_t key, bool wide_keys) {
  return wide_keys ? static_cast<int>(key >> 32) : static_cast<int>(key >> 27);
}

/// Open-addressing hash map with linear probing, modelling a scratchpad
/// array. Tracks the number of probes performed so the simulated cost
/// reflects the actual fill rate.
///
/// Layout: Swiss-table-style control bytes over SoA key/value arrays. Each
/// slot owns one control byte — kEmpty, or a 7-bit tag derived from the
/// key's hash — grouped into 16-byte cache-line-friendly groups, so the SIMD
/// backends compare a whole group per instruction while the scalar backend
/// walks the same bytes one at a time. Both backends visit the *same*
/// logical probe sequence (multiplicative hash modulo the logical capacity,
/// +1 linear steps) and account the same probe count — the number of slots a
/// one-at-a-time scan would visit — so contents, insertion order, and every
/// PassStats counter are bit-identical across backends. Most probes stop on
/// their home slot, so insert_key, accumulate and accumulate_if_present
/// settle that case inline (one byte compare, one probe counted) and call
/// out of line only for a longer walk.
///
/// Control bytes are always valid: `reconfigure()` keeps every byte below
/// the logical capacity kEmpty or a tag and pads the last group with
/// sentinels. Every claimed slot is recorded in a used-slot list (sized to
/// the retained storage, so steady state never allocates) and its group is
/// marked in a small bitmap. `reset()` and `reconfigure()` return just those
/// slots to kEmpty — O(slots used), not O(capacity) — which is what lets a
/// per-worker workspace reuse one map across every block it executes.
/// Probe sequences depend only on the logical capacity, never on the size
/// of the retained slot storage, so a reused map behaves bit-identically to
/// a freshly constructed one.
class DeviceHashMap {
 public:
  /// Empty map; `reconfigure()` must run before any insert.
  DeviceHashMap() = default;
  explicit DeviceHashMap(std::size_t capacity) { reconfigure(capacity); }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }
  double fill_rate() const {
    return capacity_ == 0 ? 1.0 : static_cast<double>(size_) / static_cast<double>(capacity_);
  }

  /// Total linear-probing steps performed since construction/reconfigure.
  std::size_t probes() const { return probes_; }

  /// SIMD backend used by the probe loops (must be resolved, never kAuto).
  /// The backend only changes how fast a probe runs, never its outcome.
  void set_backend(SimdBackend backend) { backend_ = backend; }
  SimdBackend backend() const { return backend_; }

  /// Symbolic insert: adds the key if absent, with value 0.0. Returns true
  /// when the key was new. Returns false with `overflow()` set when the map
  /// is full and the key absent. `kZeroValue = false` leaves a new slot's
  /// value unset, for callers that never read values (the symbolic
  /// accumulator). Inline like accumulate(): a probe that stops on its home
  /// slot costs one byte compare.
  template <bool kZeroValue = true>
  bool insert_key(key64_t key) {
    const std::uint64_t h = key * kHashPrime;
    const std::size_t start = hash_slot(h);
    const std::uint8_t tag = hash_tag(h);
    const std::uint8_t c = ctrl_[start];
    std::size_t slot;
    if (c == kCtrlEmpty) {
      ++probes_;
      claim(start, key, tag);
      slot = start;
    } else if (c == tag && keys_[start] == key) {
      ++probes_;
      return false;
    } else {
      slot = insert_key_from(key, start, tag);
      if (slot == kNoSlot) return false;
    }
    if constexpr (kZeroValue) vals_[slot] = 0.0;
    return true;
  }

  /// Numeric insert: accumulates `value` into the slot for `key`,
  /// creating it if needed. Returns false on overflow. The home-slot cases
  /// (claim an empty slot, add into a match) are settled inline with one
  /// probe each; every other probe walks out of line from the home slot.
  bool accumulate(key64_t key, value_t value) {
    const std::uint64_t h = key * kHashPrime;
    const std::size_t start = hash_slot(h);
    const std::uint8_t tag = hash_tag(h);
    const std::uint8_t c = ctrl_[start];
    if (c == kCtrlEmpty) {
      ++probes_;
      claim(start, key, tag);
      vals_[start] = value;
      return true;
    }
    if (c == tag && keys_[start] == key) {
      ++probes_;
      vals_[start] += value;
      return true;
    }
    return accumulate_from(key, value, start, tag);
  }

  /// Masked-insert mode: pre-seeds `key` as an admissible slot (value zero,
  /// untouched). Same probe, tag and overflow semantics as insert_key, so
  /// seeded maps behave exactly like symbolically-built ones.
  bool seed_key(key64_t key);

  /// Masked accumulate: adds into `key`'s slot only when it was seeded,
  /// marking it touched. A miss (non-mask column) is a no-op — no slot is
  /// claimed — but its probe walk is still counted like any other. Most
  /// masked misses land on an empty home slot, so that one-probe case is
  /// settled inline.
  bool accumulate_if_present(key64_t key, value_t value) {
    const std::uint64_t h = key * kHashPrime;
    const std::size_t start = hash_slot(h);
    if (ctrl_[start] == kCtrlEmpty) {
      ++probes_;
      return false;
    }
    return accumulate_if_present_from(key, value, start, hash_tag(h));
  }

  /// Reads a seeded slot back: true (with the accumulated sum in `*value`)
  /// iff the slot was touched since seeding. Untouched seeds and absent
  /// keys both report false. The probe walk is counted like any other.
  bool lookup_touched(key64_t key, value_t* value);

  bool overflowed() const { return overflowed_; }

  /// Extraction: occupied (key, value) pairs in slot order (unsorted).
  struct Entry {
    key64_t key;
    value_t value;
  };
  std::vector<Entry> extract() const;

  /// Appends the occupied (key, value) pairs to `out` in slot order without
  /// allocating beyond `out`'s own growth.
  void extract_into(std::vector<Entry>& out) const;

  /// Visits every occupied slot in slot order with fn(key, value) — the
  /// in-place alternative to extract() when no copy is needed. Only groups
  /// holding a slot claimed since the last reset are visited, in ascending
  /// order from the group bitmap. The vector backends reduce each group to
  /// one occupied-lane mask and walk its set bits in ascending lane order,
  /// so the visit order is the same slot order as the scalar scan (sentinel
  /// bytes past the logical capacity carry the high control bit and never
  /// appear in the mask, so partial tail groups need no special casing).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t words = (groups_ + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = group_used_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t base =
            (w * 64 + static_cast<std::size_t>(std::countr_zero(bits))) *
            simd::kGroupWidth;
        if (backend_ != SimdBackend::kScalar) {
          std::uint32_t occ = simd::occupied_mask16(ctrl_.data() + base, backend_);
          while (occ != 0) {
            const unsigned p = simd::lowest_bit(occ);
            fn(keys_[base + p], vals_[base + p]);
            occ &= occ - 1;
          }
        } else {
          const std::size_t end = std::min(capacity_, base + simd::kGroupWidth);
          for (std::size_t i = base; i < end; ++i) {
            if (ctrl_[i] < kCtrlEmpty) fn(keys_[i], vals_[i]);
          }
        }
      }
    }
  }

  /// Clears contents (keeps capacity and the probe counter); models the
  /// reset before moving entries to a global map. Returns only the slots
  /// claimed since the last reset to kEmpty.
  void reset();

  /// Re-targets the map for a new block: sets the logical capacity (growing
  /// the retained slot storage only when needed), clears contents and
  /// zeroes the probe counter. Costs O(slots used) when the storage already
  /// fits.
  void reconfigure(std::size_t capacity);

 private:
  /// Control-byte values: occupied slots carry a 7-bit tag (< 0x80) derived
  /// from the key's hash; kCtrlEmpty marks a free slot; kCtrlSentinel pads
  /// the tail of the last group past the logical capacity (never empty,
  /// never matching, so group scans skip it without extra branches).
  static constexpr std::uint8_t kCtrlEmpty = 0x80;
  static constexpr std::uint8_t kCtrlSentinel = 0xFF;
  static constexpr std::uint64_t kHashPrime = 0x9E3779B97F4A7C15ull;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct Probe {
    std::size_t index;  ///< slot of the match or first empty; kNoSlot: overflow
    bool found;         ///< true when the key is already present
  };

  /// Multiplicative hash (paper: index times a prime, modulo capacity).
  std::size_t hash_slot(std::uint64_t h) const {
    return static_cast<std::size_t>(h % capacity_);
  }
  /// 7-bit control tag from the hash's top bits (always < kCtrlEmpty).
  static std::uint8_t hash_tag(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }

  /// Claims the empty slot `index` for `key`: writes its tag and key and
  /// records it for reset() and for_each(). The caller sets the value.
  void claim(std::size_t index, key64_t key, std::uint8_t tag) {
    ctrl_[index] = tag;
    keys_[index] = key;
    used_[size_++] = static_cast<std::uint32_t>(index);
    const std::size_t g = index / simd::kGroupWidth;
    group_used_[g / 64] |= std::uint64_t{1} << (g % 64);
  }

  Probe probe(key64_t key, std::size_t start, std::uint8_t tag) {
    return backend_ == SimdBackend::kScalar ? probe_scalar(key, start, tag)
                                            : probe_groups(key, start, tag);
  }
  Probe probe_scalar(key64_t key, std::size_t start, std::uint8_t tag);
  Probe probe_groups(key64_t key, std::size_t start, std::uint8_t tag);
  /// The out-of-line probe walks from the home slot `start`, past the
  /// inline home-slot checks (the walk re-reads the home slot, so probe
  /// counts equal a walk from scratch). insert_key_from returns the claimed
  /// slot, or kNoSlot when the key was present or the map overflowed.
  std::size_t insert_key_from(key64_t key, std::size_t start, std::uint8_t tag);
  bool accumulate_from(key64_t key, value_t value, std::size_t start,
                       std::uint8_t tag);
  bool accumulate_if_present_from(key64_t key, value_t value, std::size_t start,
                                  std::uint8_t tag);

  /// One control byte per slot. Invariant: kEmpty everywhere except the
  /// tags of claimed slots and the sentinels in [capacity_, groups_ * 16).
  std::vector<std::uint8_t> ctrl_;
  std::vector<key64_t> keys_;
  std::vector<value_t> vals_;
  /// Masked mode only: 1 iff the seeded slot has been accumulated into.
  /// Valid only for slots written by seed_key since the last reset, so it
  /// needs no clearing of its own.
  std::vector<std::uint8_t> touched_;
  /// Slots claimed since the last reset, in claim order: used_[0, size_).
  /// Sized to the retained storage, which bounds the claims.
  std::vector<std::uint32_t> used_;
  /// One bit per group holding a slot claimed since the last reset.
  std::vector<std::uint64_t> group_used_;
  std::size_t capacity_ = 0;  ///< logical capacity; <= retained storage
  std::size_t groups_ = 0;    ///< ceil(capacity_ / kGroupWidth)
  std::size_t size_ = 0;
  std::size_t probes_ = 0;
  bool overflowed_ = false;
  SimdBackend backend_ = SimdBackend::kScalar;
};

}  // namespace speck
