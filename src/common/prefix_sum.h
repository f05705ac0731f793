// Prefix-sum primitives.
//
// On the GPU these are the building blocks for binning (paper §4.2), CSR row
// offset construction and output compaction. The host implementations are
// sequential; the simulated cost of the parallel version is charged by the
// kernels that use them.
#pragma once

#include <span>
#include <vector>

#include "common/check.h"

namespace speck {

/// In-place exclusive prefix sum. Returns the total (sum of all inputs).
template <typename T>
T exclusive_prefix_sum(std::span<T> data) {
  T running{};
  for (auto& v : data) {
    const T next = running + v;
    v = running;
    running = next;
  }
  return running;
}

/// In-place inclusive prefix sum. Returns the total.
template <typename T>
T inclusive_prefix_sum(std::span<T> data) {
  T running{};
  for (auto& v : data) {
    running += v;
    v = running;
  }
  return running;
}

/// Out-of-place exclusive prefix sum with an extra trailing total element,
/// i.e. the classic CSR offsets layout: out.size() == in.size() + 1.
template <typename T>
std::vector<T> offsets_from_counts(std::span<const T> counts) {
  std::vector<T> offsets(counts.size() + 1);
  T running{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = running;
    running += counts[i];
  }
  offsets[counts.size()] = running;
  return offsets;
}

}  // namespace speck
