// Sorting primitives mirroring the device-side sorts used by spECK.
//
// The numeric pass sorts hash-map contents three different ways depending on
// the kernel size (paper §4.3 "Numeric SpGEMM"):
//   * rank sort in scratchpad for the three smallest kernels (O(n^2) work but
//     fully parallel and allocation-free on the device),
//   * device radix sort for medium kernels,
//   * no sort at all for dense accumulation (already ordered).
// The host implementations below are exact; kernels charge the corresponding
// simulated cost.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bit_utils.h"
#include "common/check.h"
#include "common/prefix_sum.h"
#include "common/simd.h"

namespace speck {

/// Rank sort (counting ranks by comparisons). Sorts `keys` and applies the
/// same permutation to `values`. Equals the scratchpad sort used by the three
/// smallest spECK kernels.
template <typename K, typename V>
void rank_sort_pairs(std::span<K> keys, std::span<V> values) {
  SPECK_ASSERT(keys.size() == values.size(), "rank_sort_pairs size mismatch");
  const std::size_t n = keys.size();
  std::vector<std::size_t> rank(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (keys[j] < keys[i] || (keys[j] == keys[i] && j < i)) ++rank[i];
    }
  }
  std::vector<K> sorted_keys(n);
  std::vector<V> sorted_values(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_keys[rank[i]] = keys[i];
    sorted_values[rank[i]] = values[i];
  }
  std::copy(sorted_keys.begin(), sorted_keys.end(), keys.begin());
  std::copy(sorted_values.begin(), sorted_values.end(), values.begin());
}

/// Least-significant-digit radix sort on unsigned keys with a payload,
/// 8 bits per pass. Stable. Mirrors the CUB-style device radix sort used
/// for the larger spECK kernels and by the ESC baselines.
///
/// `simd` only enables software prefetch of the scatter destinations (the
/// permute loop's stores are data-dependent and defeat the hardware
/// prefetcher); the permutation — and therefore the sorted output — is
/// identical on every backend.
template <typename K, typename V>
void radix_sort_pairs(std::vector<K>& keys, std::vector<V>& values,
                      SimdBackend simd = SimdBackend::kScalar) {
  static_assert(std::is_unsigned_v<K>, "radix sort requires unsigned keys");
  SPECK_ASSERT(keys.size() == values.size(), "radix_sort_pairs size mismatch");
  const std::size_t n = keys.size();
  if (n < 2) return;

  K max_key = 0;
  for (const K k : keys) max_key = std::max(max_key, k);

  std::vector<K> key_buffer(n);
  std::vector<V> value_buffer(n);
  constexpr int kBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  std::size_t histogram[kBuckets];
  const bool prefetch_scatter = simd != SimdBackend::kScalar;
  constexpr std::size_t kPrefetchDistance = 8;

  for (int shift = 0; shift < static_cast<int>(sizeof(K) * 8); shift += kBits) {
    if (shift > 0 && (max_key >> shift) == 0) break;
    std::fill(std::begin(histogram), std::end(histogram), 0);
    for (std::size_t i = 0; i < n; ++i) ++histogram[(keys[i] >> shift) & (kBuckets - 1)];
    exclusive_prefix_sum(std::span<std::size_t>(histogram));  // -> offsets
    for (std::size_t i = 0; i < n; ++i) {
      if (prefetch_scatter && i + kPrefetchDistance < n) {
        // The upcoming element's destination cursor is known now; touch the
        // target lines so the stores below hit warm cache.
        const std::size_t ahead_bucket =
            (keys[i + kPrefetchDistance] >> shift) & (kBuckets - 1);
        simd::prefetch(key_buffer.data() + histogram[ahead_bucket]);
        simd::prefetch(value_buffer.data() + histogram[ahead_bucket]);
      }
      const std::size_t bucket = (keys[i] >> shift) & (kBuckets - 1);
      key_buffer[histogram[bucket]] = keys[i];
      value_buffer[histogram[bucket]] = values[i];
      ++histogram[bucket];
    }
    keys.swap(key_buffer);
    values.swap(value_buffer);
  }
}

/// Record count up to which radix_sort_records uses insertion sort.
inline constexpr std::size_t kRadixSortSmall = 32;

/// Least-significant-digit radix sort of records by an unsigned key,
/// 8 bits per pass, ping-ponging between `records` and `scratch`. Stable.
/// Digits on which every key agrees are skipped, so keys that span few bits
/// take few passes whatever their width. Returns the sorted records, which
/// end up in either buffer; both keep their capacity across calls.
template <typename T, typename KeyFn>
std::span<const T> radix_sort_records(std::vector<T>& records,
                                      std::vector<T>& scratch, KeyFn key) {
  using K = std::invoke_result_t<KeyFn, const T&>;
  static_assert(std::is_unsigned_v<K>, "radix sort requires unsigned keys");
  const std::size_t n = records.size();
  if (n <= kRadixSortSmall) {
    // Below this size a digit pass's bucket bookkeeping costs more than
    // insertion sort's moves.
    for (std::size_t i = 1; i < n; ++i) {
      const T r = records[i];
      std::size_t j = i;
      for (; j > 0 && key(r) < key(records[j - 1]); --j) records[j] = records[j - 1];
      records[j] = r;
    }
    return records;
  }
  K any_set = 0;
  K all_set = ~K{0};
  for (const T& r : records) {
    any_set |= key(r);
    all_set &= key(r);
  }
  const K varying = any_set & ~all_set;
  scratch.resize(n);
  T* src = records.data();
  T* dst = scratch.data();
  constexpr int kBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  std::size_t bucket_start[kBuckets];
  for (int shift = 0; shift < static_cast<int>(sizeof(K) * 8); shift += kBits) {
    if (((varying >> shift) & (kBuckets - 1)) == 0) continue;
    std::fill(std::begin(bucket_start), std::end(bucket_start), 0);
    for (std::size_t i = 0; i < n; ++i) ++bucket_start[(key(src[i]) >> shift) & (kBuckets - 1)];
    std::size_t sum = 0;
    for (std::size_t& start : bucket_start) sum += std::exchange(start, sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[bucket_start[(key(src[i]) >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  return {src, n};
}

/// Number of radix passes the device sort would execute for the given key
/// range; used by the cost model.
template <typename K>
int radix_pass_count(K max_key) {
  int passes = 1;
  while ((max_key >>= 8) != 0) ++passes;
  return passes;
}

}  // namespace speck

namespace speck {

/// Bitonic sort of key/value pairs, padded internally to a power of two —
/// the in-kernel sort nsparse and bhSPARSE use. O(n log^2 n) compare
/// operations; `bitonic_compare_count(n)` reports how many, for cost models.
template <typename K, typename V>
void bitonic_sort_pairs(std::vector<K>& keys, std::vector<V>& values) {
  SPECK_ASSERT(keys.size() == values.size(), "bitonic_sort_pairs size mismatch");
  const std::size_t n = keys.size();
  if (n < 2) return;
  const auto padded = static_cast<std::size_t>(next_pow2(n));
  const K max_key = std::numeric_limits<K>::max();
  keys.resize(padded, max_key);
  values.resize(padded, V{});

  for (std::size_t stage = 2; stage <= padded; stage *= 2) {
    for (std::size_t stride = stage / 2; stride >= 1; stride /= 2) {
      for (std::size_t i = 0; i < padded; ++i) {
        const std::size_t partner = i ^ stride;
        if (partner <= i) continue;
        const bool ascending = (i & stage) == 0;
        if ((keys[i] > keys[partner]) == ascending) {
          std::swap(keys[i], keys[partner]);
          std::swap(values[i], values[partner]);
        }
      }
    }
  }
  keys.resize(n);
  values.resize(n);
}

/// Compare operations a bitonic network of (padded) size n executes.
inline std::size_t bitonic_compare_count(std::size_t n) {
  const auto padded = static_cast<std::size_t>(next_pow2(std::max<std::size_t>(n, 2)));
  const auto stages = static_cast<std::size_t>(log2_pow2(padded));
  return padded / 2 * stages * (stages + 1) / 2;
}

}  // namespace speck
