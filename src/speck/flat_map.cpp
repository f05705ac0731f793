#include "speck/flat_map.h"

namespace speck {

namespace {
constexpr std::size_t kInitialSlots = 64;  // power of two, multiple of 16
}  // namespace

FlatSpillMap::Locate FlatSpillMap::locate(key64_t key) {
  if (slot_count_ == 0 || (size_ + 1) * 4 > slot_count_ * 3) grow();
  return find(key);
}

FlatSpillMap::Locate FlatSpillMap::find(key64_t key) {
  const std::uint64_t h = key * kHashPrime;
  const std::uint8_t tag = hash_tag(h);
  std::size_t slot = slot_for(h);

  if (backend_ == SimdBackend::kScalar) {
    // Reference scan: one control byte at a time. The ≤75% load factor
    // guarantees an empty slot, so the walk always terminates.
    for (;;) {
      materialize_group(slot / simd::kGroupWidth);
      const std::uint8_t c = ctrl_[slot];
      if (c == kCtrlEmpty) return Locate{slot, false};
      if (c == tag && keys_[slot] == key) return Locate{slot, true};
      slot = (slot + 1) & (slot_count_ - 1);
    }
  }

  // Group scan: same probe sequence, one 16-byte group per iteration. The
  // capacity is a multiple of the group width, so groups never straddle the
  // wrap and need no sentinels. The home slot settles most probes with one
  // byte compare before the group machinery engages.
  materialize_group(slot / simd::kGroupWidth);
  const std::uint8_t c0 = ctrl_[slot];
  if (c0 == kCtrlEmpty) return Locate{slot, false};
  if (c0 == tag && keys_[slot] == key) return Locate{slot, true};
  for (;;) {
    const std::size_t base = slot & ~(simd::kGroupWidth - 1);
    const auto off = static_cast<unsigned>(slot - base);
    materialize_group(base / simd::kGroupWidth);
    const simd::GroupMasks m =
        simd::group_masks16(ctrl_.data() + base, tag, kCtrlEmpty, backend_);
    // Ascending walk over candidate stops: the first empty lane ends the
    // probe before any tag match past it is examined, like the scalar scan.
    std::uint32_t stops = (m.tag_mask | m.empty_mask) & (0xFFFFu << off);
    while (stops != 0) {
      const unsigned p = simd::lowest_bit(stops);
      if ((m.empty_mask >> p) & 1u) return Locate{base + p, false};
      if (keys_[base + p] == key) return Locate{base + p, true};
      stops &= stops - 1;
    }
    slot = (base + simd::kGroupWidth) & (slot_count_ - 1);
  }
}

bool FlatSpillMap::insert(key64_t key) {
  const Locate l = locate(key);
  if (l.present) return false;
  ctrl_[l.index] = hash_tag(key * kHashPrime);
  keys_[l.index] = key;
  vals_[l.index] = 0.0;
  ++size_;
  return true;
}

void FlatSpillMap::accumulate(key64_t key, value_t value) {
  const Locate l = locate(key);
  if (l.present) {
    vals_[l.index] += value;
    return;
  }
  // A new key takes the value itself, like DeviceHashMap::accumulate: 0.0 +
  // value would turn a -0.0 into +0.0.
  ctrl_[l.index] = hash_tag(key * kHashPrime);
  keys_[l.index] = key;
  vals_[l.index] = value;
  ++size_;
}

bool FlatSpillMap::seed(key64_t key) {
  const Locate l = locate(key);
  if (l.present) return false;
  ctrl_[l.index] = hash_tag(key * kHashPrime);
  keys_[l.index] = key;
  vals_[l.index] = 0.0;
  touched_[l.index] = 0;
  ++size_;
  return true;
}

bool FlatSpillMap::accumulate_if_present(key64_t key, value_t value) {
  if (slot_count_ == 0) return false;
  const Locate l = find(key);
  if (!l.present) return false;
  vals_[l.index] += value;
  touched_[l.index] = 1;
  return true;
}

bool FlatSpillMap::lookup_touched(key64_t key, value_t* value) {
  if (slot_count_ == 0) return false;
  const Locate l = find(key);
  if (!l.present || touched_[l.index] == 0) return false;
  *value = vals_[l.index];
  return true;
}

void FlatSpillMap::grow() {
  const std::size_t next = slot_count_ == 0 ? kInitialSlots : slot_count_ * 2;
  std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
  std::vector<std::uint64_t> old_group_epoch = std::move(group_epoch_);
  std::vector<key64_t> old_keys = std::move(keys_);
  std::vector<value_t> old_vals = std::move(vals_);
  std::vector<std::uint8_t> old_touched = std::move(touched_);
  const std::size_t old_count = slot_count_;
  const std::uint64_t old_epoch = epoch_;

  ctrl_.assign(next, kCtrlEmpty);
  group_epoch_.assign(next / simd::kGroupWidth, 1);
  keys_.assign(next, 0);
  vals_.assign(next, 0.0);
  touched_.assign(next, 0);
  slot_count_ = next;
  epoch_ = 1;

  // Re-place the occupied slots in slot order; placement is a pure function
  // of key hash and table size (first empty slot at/after the home slot),
  // identical for every backend.
  for (std::size_t g = 0; g < old_count / simd::kGroupWidth; ++g) {
    if (old_group_epoch[g] != old_epoch) continue;
    const std::size_t base = g * simd::kGroupWidth;
    for (std::size_t i = base; i < base + simd::kGroupWidth; ++i) {
      if (old_ctrl[i] >= kCtrlEmpty) continue;
      const std::uint64_t h = old_keys[i] * kHashPrime;
      std::size_t slot = slot_for(h);
      while (ctrl_[slot] < kCtrlEmpty) slot = (slot + 1) & (slot_count_ - 1);
      ctrl_[slot] = hash_tag(h);
      keys_[slot] = old_keys[i];
      vals_[slot] = old_vals[i];
      touched_[slot] = old_touched[i];
    }
  }
}

void FlatSpillMap::clear() {
  ++epoch_;
  size_ = 0;
}

}  // namespace speck
