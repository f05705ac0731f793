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

/// `magic` for remainder_by_magic(): floor((2^128 - 1) / divisor) + 1.
/// (Divisor 1 wraps to 0, which gives the right remainder, 0.)
inline unsigned __int128 remainder_magic(std::uint64_t divisor) {
  return ~static_cast<unsigned __int128>(0) / divisor + 1;
}

/// `h % divisor` without a division (Lemire, Kaser & Kurz, "Faster
/// Remainder by Direct Computation", 2019): `magic * h` keeps the 128-bit
/// fraction of h / divisor, and the top bits of fraction * divisor are the
/// remainder. Exact for every 64-bit `h` and divisor, since the 128-bit
/// fraction has at least 64 + log2(divisor) bits.
inline std::uint64_t remainder_by_magic(std::uint64_t h, unsigned __int128 magic,
                                        std::uint64_t divisor) {
  using u128 = unsigned __int128;
  const u128 fraction = magic * h;
  const u128 low = (static_cast<u128>(static_cast<std::uint64_t>(fraction)) *
                    divisor) >> 64;
  const u128 high = (fraction >> 64) * divisor;
  return static_cast<std::uint64_t>((high + low) >> 64);
}

/// The home slot of hash `h` in a map of `capacity` slots, h mod capacity:
/// a mask when the capacity is a power of two, remainder_by_magic
/// otherwise. Both give the same slot, so the choice never changes a probe.
struct HomeSlot {
  unsigned __int128 magic = 0;  ///< remainder_magic(capacity)
  std::uint64_t capacity = 0;
  bool pow2 = false;            ///< capacity is a power of two

  HomeSlot() = default;
  explicit HomeSlot(std::uint64_t capacity)
      : magic(remainder_magic(capacity)),
        capacity(capacity),
        pow2(std::has_single_bit(capacity)) {}

  std::uint64_t operator()(std::uint64_t h) const {
    return pow2 ? h & (capacity - 1) : remainder_by_magic(h, magic, capacity);
  }
};

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
/// PassStats counter are bit-identical across backends. The home slot is the
/// paper's remainder (HomeSlot): a mask for power-of-two capacities,
/// computed by multiplication (remainder_by_magic) for the others.
///
/// Most probes stop on their home slot. The runners (insert_run,
/// accumulate_run, accumulate_if_present_run) settle that case in their own
/// loop over a run of keys — one byte compare, one probe counted — with the
/// map's arrays and counters held in locals, and call out of line only for
/// a longer walk. insert_key, accumulate and accumulate_if_present are
/// one-key runs.
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
  /// accumulator). A one-key insert_run().
  template <bool kZeroValue = true>
  bool insert_key(key64_t key) {
    std::size_t added = 0;
    insert_run<kZeroValue>(1, kNoLimit, [key](std::size_t) { return key; }, added);
    return added != 0;
  }

  /// Numeric insert: accumulates `value` into the slot for `key`,
  /// creating it if needed. Returns false on overflow. A one-key
  /// accumulate_run().
  bool accumulate(key64_t key, value_t value) {
    return accumulate_run(1, kNoLimit, [key](std::size_t) { return key; },
                          [value](std::size_t) { return value; }) != 0;
  }

  /// Masked-insert mode: pre-seeds `key` as an admissible slot (value zero,
  /// untouched). Same probe, tag and overflow semantics as insert_key, so
  /// seeded maps behave exactly like symbolically-built ones. A one-key
  /// seed_run().
  bool seed_key(key64_t key) {
    std::size_t added = 0;
    seed_run(1, kNoLimit, [key](std::size_t) { return key; }, added);
    return added != 0;
  }

  /// Masked accumulate: adds into `key`'s slot only when it was seeded,
  /// marking it touched. A miss (non-mask column) is a no-op — no slot is
  /// claimed — but its probe walk is still counted like any other. A
  /// one-key accumulate_if_present_run().
  bool accumulate_if_present(key64_t key, value_t value) {
    return accumulate_if_present_run(1, [key](std::size_t) { return key; },
                                     [value](std::size_t) { return value; }) != 0;
  }

  /// The multiplier of the home-slot hash: key * kHashPrime mod capacity.
  static constexpr std::uint64_t kHashPrime = 0x9E3779B97F4A7C15ull;

  /// `limit` for a run that stops only on overflow.
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  /// Inserts key_at(0), key_at(1), ... in order, like that many insert_key
  /// calls, while the map holds fewer than `limit` entries. Stops before
  /// key `n`, before a key that would find `limit` entries, or at a key
  /// that overflows the full map (its probes counted, `overflowed()` set).
  /// Returns the keys settled and adds the new ones to `added`.
  template <bool kZeroValue, typename KeyAt>
  std::size_t insert_run(std::size_t n, std::size_t limit, KeyAt key_at,
                         std::size_t& added) {
    std::size_t fresh = 0;
    const std::size_t settled = claim_run(
        n, limit, key_at,
        [&fresh](value_t* vals, std::size_t slot, std::size_t) {
          if constexpr (kZeroValue) vals[slot] = 0.0;
          ++fresh;
        },
        [](value_t*, std::size_t, std::size_t) {});
    added += fresh;
    return settled;
  }

  /// Seeds key_at(0), key_at(1), ... in order, like that many seed_key
  /// calls, with insert_run's stopping rules. Returns the keys settled and
  /// adds the new ones to `added`.
  template <typename KeyAt>
  std::size_t seed_run(std::size_t n, std::size_t limit, KeyAt key_at,
                       std::size_t& added) {
    std::uint8_t* const touched = touched_.data();
    std::size_t fresh = 0;
    const std::size_t settled = claim_run(
        n, limit, key_at,
        [touched, &fresh](value_t* vals, std::size_t slot, std::size_t) {
          vals[slot] = 0.0;
          touched[slot] = 0;
          ++fresh;
        },
        [](value_t*, std::size_t, std::size_t) {});
    added += fresh;
    return settled;
  }

  /// Accumulates value_at(i) into key_at(i)'s slot for i = 0, 1, ..., like
  /// that many accumulate calls, with insert_run's stopping rules. Returns
  /// the keys settled. value_at(i) is evaluated once, after the probe.
  template <typename KeyAt, typename ValueAt>
  std::size_t accumulate_run(std::size_t n, std::size_t limit, KeyAt key_at,
                             ValueAt value_at) {
    return claim_run(
        n, limit, key_at,
        [&value_at](value_t* vals, std::size_t slot, std::size_t i) {
          vals[slot] = value_at(i);
        },
        [&value_at](value_t* vals, std::size_t slot, std::size_t i) {
          vals[slot] += value_at(i);
        });
  }

  /// Masked accumulate of value_at(i) into key_at(i)'s slot for each
  /// i < n, like that many accumulate_if_present calls. Returns the keys
  /// that hit a seeded slot. The run never claims a slot, so the home slots
  /// of a chunk of keys are computed before any of them is probed, which
  /// lets their multiplies overlap.
  template <typename KeyAt, typename ValueAt>
  std::size_t accumulate_if_present_run(std::size_t n, KeyAt key_at,
                                        ValueAt value_at) {
    constexpr std::size_t kChunk = 16;
    const std::uint8_t* const ctrl = ctrl_.data();
    const key64_t* const keys = keys_.data();
    value_t* const vals = vals_.data();
    std::uint8_t* const touched = touched_.data();
    const HomeSlot home_slot = home_;
    std::size_t probes = probes_;
    std::size_t hits = 0;
    std::size_t home[kChunk] = {};
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t len = std::min(kChunk, n - base);
      for (std::size_t j = 0; j < len; ++j) {
        home[j] = static_cast<std::size_t>(home_slot(key_at(base + j) * kHashPrime));
      }
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t start = home[j];
        const std::uint8_t c = ctrl[start];
        if (c == kCtrlEmpty) {
          ++probes;
          continue;
        }
        const key64_t key = key_at(base + j);
        const std::uint8_t tag = hash_tag(key * kHashPrime);
        if (c == tag && keys[start] == key) {
          ++probes;
          vals[start] += value_at(base + j);
          touched[start] = 1;
          ++hits;
          continue;
        }
        probes_ = probes;
        hits += accumulate_if_present_from(key, value_at(base + j), start, tag) ? 1 : 0;
        probes = probes_;
      }
    }
    probes_ = probes;
    return hits;
  }

  /// Reads a seeded slot back: true (with the accumulated sum in `*value`)
  /// iff the slot was touched since seeding. Untouched seeds and absent
  /// keys both report false. The probe walk is counted like any other. A
  /// one-key lookup_run().
  bool lookup_touched(key64_t key, value_t* value) {
    bool hit = false;
    lookup_run(1, [key](std::size_t) { return key; },
               [&](std::size_t, value_t sum) {
                 *value = sum;
                 hit = true;
               });
    return hit;
  }

  /// lookup_touched on key_at(0), key_at(1), ...: calls emit(i, sum) for
  /// each key that was seeded and touched since, in order.
  template <typename KeyAt, typename Emit>
  void lookup_run(std::size_t n, KeyAt key_at, Emit emit) {
    const std::uint8_t* const ctrl = ctrl_.data();
    const key64_t* const keys = keys_.data();
    const value_t* const vals = vals_.data();
    const std::uint8_t* const touched = touched_.data();
    const HomeSlot home_slot = home_;
    std::size_t probes = probes_;
    for (std::size_t i = 0; i < n; ++i) {
      const key64_t key = key_at(i);
      const std::uint64_t h = key * kHashPrime;
      const auto start = static_cast<std::size_t>(home_slot(h));
      const std::uint8_t tag = hash_tag(h);
      const std::uint8_t c = ctrl[start];
      std::size_t slot = start;
      if (c == tag && keys[start] == key) {
        ++probes;
      } else if (c == kCtrlEmpty) {
        ++probes;
        continue;
      } else {
        probes_ = probes;
        const Probe p = probe(key, start, tag);
        probes = probes_;
        if (p.index == kNoSlot || !p.found) continue;
        slot = p.index;
      }
      if (touched[slot] != 0) emit(i, vals[slot]);
    }
    probes_ = probes;
  }

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
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct Probe {
    std::size_t index;  ///< slot of the match or first empty; kNoSlot: overflow
    bool found;         ///< true when the key is already present
  };

  /// 7-bit control tag from the hash's top bits (always < kCtrlEmpty).
  static std::uint8_t hash_tag(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }

  /// The map's arrays and counters, copied into locals by a runner: its
  /// control-byte stores cannot alias a local, so the compiler keeps them
  /// in registers instead of reloading the members after every claim.
  /// commit() writes the counters back before any member function runs.
  struct Cursor {
    std::uint8_t* ctrl;
    key64_t* keys;
    value_t* vals;
    std::uint32_t* used;
    std::uint64_t* group_used;
    std::size_t size;
    std::size_t probes;

    /// Claims the empty slot `index` for `key`: writes its tag and key and
    /// records it for reset() and for_each(). The caller sets the value.
    void claim(std::size_t index, key64_t key, std::uint8_t tag) {
      ctrl[index] = tag;
      keys[index] = key;
      used[size++] = static_cast<std::uint32_t>(index);
      const std::size_t g = index / simd::kGroupWidth;
      group_used[g / 64] |= std::uint64_t{1} << (g % 64);
    }
  };
  Cursor cursor() {
    return {ctrl_.data(), keys_.data(), vals_.data(), used_.data(),
            group_used_.data(), size_, probes_};
  }
  void commit(const Cursor& m) {
    size_ = m.size;
    probes_ = m.probes;
  }
  void claim(std::size_t index, key64_t key, std::uint8_t tag) {
    Cursor m = cursor();
    m.claim(index, key, tag);
    commit(m);
  }

  /// The home-slot loop behind insert_run and accumulate_run. For key i it
  /// calls fresh(vals, slot, i) after claiming a slot for an absent key, or
  /// found(vals, slot, i) on the slot of a present one; `vals` is the local
  /// copy of the value array.
  template <typename KeyAt, typename Fresh, typename Found>
  std::size_t claim_run(std::size_t n, std::size_t limit, KeyAt key_at,
                        Fresh fresh, Found found) {
    Cursor m = cursor();
    const HomeSlot home_slot = home_;
    std::size_t i = 0;
    for (; i < n && m.size < limit; ++i) {
      const key64_t key = key_at(i);
      const std::uint64_t h = key * kHashPrime;
      const auto start = static_cast<std::size_t>(home_slot(h));
      const std::uint8_t tag = hash_tag(h);
      const std::uint8_t c = m.ctrl[start];
      if (c == kCtrlEmpty) {
        ++m.probes;
        m.claim(start, key, tag);
        fresh(m.vals, start, i);
      } else if (c == tag && m.keys[start] == key) {
        ++m.probes;
        found(m.vals, start, i);
      } else {
        commit(m);
        const Probe p = insert_key_from(key, start, tag);
        m.size = size_;
        m.probes = probes_;
        if (p.index == kNoSlot) break;
        if (p.found) {
          found(m.vals, p.index, i);
        } else {
          fresh(m.vals, p.index, i);
        }
      }
    }
    commit(m);
    return i;
  }

  Probe probe(key64_t key, std::size_t start, std::uint8_t tag) {
    return backend_ == SimdBackend::kScalar ? probe_scalar(key, start, tag)
                                            : probe_groups(key, start, tag);
  }
  Probe probe_scalar(key64_t key, std::size_t start, std::uint8_t tag);
  Probe probe_groups(key64_t key, std::size_t start, std::uint8_t tag);
  /// The out-of-line probe walks from the home slot `start`, past a
  /// runner's home-slot checks (the walk re-reads the home slot, so probe
  /// counts equal a walk from scratch). insert_key_from claims the slot of
  /// an absent key and returns the probe (index kNoSlot: overflow).
  Probe insert_key_from(key64_t key, std::size_t start, std::uint8_t tag);
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
  HomeSlot home_;             ///< home slots over capacity_
  std::size_t groups_ = 0;    ///< ceil(capacity_ / kGroupWidth)
  std::size_t size_ = 0;
  std::size_t probes_ = 0;
  bool overflowed_ = false;
  SimdBackend backend_ = SimdBackend::kScalar;
};

}  // namespace speck
