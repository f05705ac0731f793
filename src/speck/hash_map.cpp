#include "speck/hash_map.h"

#include <cstring>

namespace speck {

// One-slot-at-a-time reference probe: the exact linear scan the paper's
// scratchpad map performs. Every visited slot is one probe; the first empty
// slot or key match stops the scan; a full cycle without either overflows.
DeviceHashMap::Probe DeviceHashMap::probe_scalar(key64_t key, std::size_t start,
                                                 std::uint8_t tag) {
  std::size_t slot = start;
  for (std::size_t step = 0; step < capacity_; ++step) {
    ++probes_;
    const std::uint8_t c = ctrl_[slot];
    if (c == kCtrlEmpty) return Probe{slot, false};
    if (c == tag && keys_[slot] == key) return Probe{slot, true};
    slot = slot + 1 == capacity_ ? 0 : slot + 1;
  }
  return Probe{kNoSlot, false};
}

// Group-probing variant: scans one 16-byte control group per iteration and
// derives the same stop slot — and the same probe count (slots a scalar scan
// would visit) — from the match/empty masks. The first iteration masks off
// lanes before the start slot; sentinel bytes past the logical capacity
// match neither the tag nor kEmpty, so partial tail groups need no special
// casing. `visited` counts in-range slots scanned by previous iterations;
// when it reaches the capacity without a stop, the map has cycled and the
// probe overflows with exactly `capacity_` probes, like the scalar scan.
DeviceHashMap::Probe DeviceHashMap::probe_groups(key64_t key, std::size_t start,
                                                 std::uint8_t tag) {
  // Most probes stop on their home slot; one byte compare settles those
  // without paying for a whole-group scan, and counts the same single probe
  // the scalar scan would.
  const std::uint8_t c0 = ctrl_[start];
  if (c0 == kCtrlEmpty) {
    ++probes_;
    return Probe{start, false};
  }
  if (c0 == tag && keys_[start] == key) {
    ++probes_;
    return Probe{start, true};
  }
  std::size_t visited = 0;
  std::size_t slot = start;
  while (visited < capacity_) {
    const std::size_t g = slot / simd::kGroupWidth;
    const std::size_t base = g * simd::kGroupWidth;
    const auto off = static_cast<unsigned>(slot - base);
    const simd::GroupMasks m =
        simd::group_masks16(ctrl_.data() + base, tag, kCtrlEmpty, backend_);
    // Walk candidate stop lanes in ascending order: the first empty lane
    // ends the probe exactly like the scalar scan would, so tag matches
    // past it are never examined.
    std::uint32_t stops = (m.tag_mask | m.empty_mask) & (0xFFFFu << off);
    while (stops != 0) {
      const unsigned p = simd::lowest_bit(stops);
      if ((m.empty_mask >> p) & 1u) {
        probes_ += visited + (p - off) + 1;
        return Probe{base + p, false};
      }
      if (keys_[base + p] == key) {
        probes_ += visited + (p - off) + 1;
        return Probe{base + p, true};
      }
      stops &= stops - 1;
    }
    const std::size_t in_range =
        std::min<std::size_t>(simd::kGroupWidth, capacity_ - base);
    visited += in_range - off;
    slot = base + simd::kGroupWidth >= capacity_ ? 0 : base + simd::kGroupWidth;
  }
  probes_ += capacity_;
  return Probe{kNoSlot, false};
}

DeviceHashMap::Probe DeviceHashMap::insert_key_from(key64_t key,
                                                    std::size_t start,
                                                    std::uint8_t tag) {
  const Probe p = probe(key, start, tag);
  if (p.index == kNoSlot) {
    overflowed_ = true;
  } else if (!p.found) {
    claim(p.index, key, tag);
  }
  return p;
}

bool DeviceHashMap::accumulate_if_present_from(key64_t key, value_t value,
                                               std::size_t start,
                                               std::uint8_t tag) {
  const Probe p = probe(key, start, tag);
  if (p.index == kNoSlot || !p.found) return false;
  vals_[p.index] += value;
  touched_[p.index] = 1;
  return true;
}

std::vector<DeviceHashMap::Entry> DeviceHashMap::extract() const {
  std::vector<Entry> out;
  out.reserve(size_);
  extract_into(out);
  return out;
}

void DeviceHashMap::extract_into(std::vector<Entry>& out) const {
  for_each([&](key64_t key, value_t value) { out.push_back(Entry{key, value}); });
}

void DeviceHashMap::reset() {
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t slot = used_[i];
    ctrl_[slot] = kCtrlEmpty;
    group_used_[slot / simd::kGroupWidth / 64] = 0;
  }
  size_ = 0;
  overflowed_ = false;
}

void DeviceHashMap::reconfigure(std::size_t capacity) {
  SPECK_REQUIRE(capacity > 0, "hash map capacity must be positive");
  SPECK_REQUIRE(capacity <= UINT32_MAX, "hash map capacity exceeds 32-bit slots");
  reset();
  if (capacity != capacity_) {
    const std::size_t groups = (capacity + simd::kGroupWidth - 1) / simd::kGroupWidth;
    const std::size_t slots = groups * simd::kGroupWidth;
    if (slots > ctrl_.size()) {
      ctrl_.resize(slots, kCtrlEmpty);
      keys_.resize(slots);
      vals_.resize(slots);
      touched_.resize(slots);
      used_.resize(slots);
      group_used_.resize((groups + 63) / 64, 0);
    }
    // Only the old and new tail padding change: the old sentinels become
    // kEmpty, then the new last group is padded.
    std::memset(ctrl_.data() + capacity_, kCtrlEmpty,
                groups_ * simd::kGroupWidth - capacity_);
    std::memset(ctrl_.data() + capacity, kCtrlSentinel, slots - capacity);
    capacity_ = capacity;
    home_ = HomeSlot(capacity);
    groups_ = groups;
  }
  probes_ = 0;
}

}  // namespace speck
