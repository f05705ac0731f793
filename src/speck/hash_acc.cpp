#include "speck/hash_acc.h"

#include <algorithm>

namespace speck {

namespace {

/// local_limit_ for a block: one compare against it per insert covers both
/// spill causes.
std::size_t local_entry_limit(std::size_t capacity, const FaultInjector* faults) {
  if (faults == nullptr || faults->spec().hash_overflow_after <= 0) return capacity;
  return std::min(capacity,
                  static_cast<std::size_t>(faults->spec().hash_overflow_after));
}

}  // namespace

void SymbolicHashAccumulator::begin_block(std::size_t capacity,
                                          const FaultInjector* faults,
                                          SimdBackend simd) {
  local_.reconfigure(capacity);
  local_.set_backend(simd);
  global_.clear();
  global_.set_backend(simd);
  local_limit_ = local_entry_limit(capacity, faults);
  in_global_ = false;
  moved_entries_ = 0;
  global_inserts_ = 0;
}

std::vector<index_t> SymbolicHashAccumulator::row_counts(int rows,
                                                         bool wide_keys) const {
  std::vector<index_t> counts(static_cast<std::size_t>(rows), 0);
  const auto count_key = [&](key64_t key, value_t) {
    const int local_row = key_local_row(key, wide_keys);
    SPECK_ASSERT(local_row < rows, "compound key local row out of range");
    ++counts[static_cast<std::size_t>(local_row)];
  };
  local_.for_each(count_key);
  if (in_global_) global_.for_each(count_key);
  return counts;
}

void SymbolicHashAccumulator::spill() {
  in_global_ = true;
  local_.for_each([&](key64_t key, value_t) { global_.insert(key); });
  moved_entries_ += local_.size();
  local_.reset();
  // New keys collect in the global map from here on; the paper re-fills the
  // local map and bulk-moves, which has the same modeled cost shape (we
  // charge per-insert global atomics instead).
}

void NumericHashAccumulator::begin_block(std::size_t capacity,
                                         const FaultInjector* faults,
                                         SimdBackend simd) {
  local_.reconfigure(capacity);
  local_.set_backend(simd);
  global_.clear();
  global_.set_backend(simd);
  local_limit_ = local_entry_limit(capacity, faults);
  in_global_ = false;
  moved_entries_ = 0;
  global_inserts_ = 0;
}

void NumericHashAccumulator::extract_into(
    std::vector<DeviceHashMap::Entry>& out) const {
  out.clear();
  local_.extract_into(out);
  if (!in_global_) return;
  global_.for_each([&](key64_t key, value_t value) {
    out.push_back(DeviceHashMap::Entry{key, value});
  });
}

std::vector<DeviceHashMap::Entry> NumericHashAccumulator::extract() const {
  std::vector<DeviceHashMap::Entry> entries;
  entries.reserve(entry_count());
  extract_into(entries);
  return entries;
}

void NumericHashAccumulator::spill() {
  in_global_ = true;
  local_.for_each(
      [&](key64_t key, value_t value) { global_.accumulate(key, value); });
  moved_entries_ += local_.size();
  local_.reset();
}

void MaskedNumericAccumulator::begin_block(std::size_t capacity,
                                           const FaultInjector* faults,
                                           SimdBackend simd) {
  local_.reconfigure(capacity);
  local_.set_backend(simd);
  global_.clear();
  global_.set_backend(simd);
  local_limit_ = local_entry_limit(capacity, faults);
  in_global_ = false;
  moved_entries_ = 0;
  global_inserts_ = 0;
}

void MaskedNumericAccumulator::spill() {
  in_global_ = true;
  // Only seeds can be in flight here (streaming never inserts), so every
  // moved entry is an untouched zero and re-seeding preserves state.
  local_.for_each([&](key64_t key, value_t) { global_.seed(key); });
  moved_entries_ += local_.size();
  local_.reset();
}

}  // namespace speck
