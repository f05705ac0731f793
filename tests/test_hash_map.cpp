// Unit tests for the scratchpad hash-map emulation (keys, probing, overflow).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/prng.h"
#include "sim/device_spec.h"
#include "speck/config.h"
#include "speck/hash_map.h"

namespace speck {
namespace {

TEST(CompoundKey, RoundTrip32) {
  for (const int row : {0, 5, 31}) {
    for (const index_t col : {0, 1, 12345, (index_t{1} << 27) - 1}) {
      const key64_t key = compound_key(row, col, /*wide=*/false);
      EXPECT_EQ(key_local_row(key, false), row);
      EXPECT_EQ(key_column(key, false), col);
    }
  }
}

TEST(CompoundKey, RoundTrip64) {
  for (const int row : {0, 31}) {
    for (const index_t col : {0, (index_t{1} << 27), (index_t{1} << 30)}) {
      const key64_t key = compound_key(row, col, /*wide=*/true);
      EXPECT_EQ(key_local_row(key, true), row);
      EXPECT_EQ(key_column(key, true), col);
    }
  }
}

TEST(CompoundKey, DistinctRowsDistinctKeys) {
  EXPECT_NE(compound_key(1, 100, false), compound_key(2, 100, false));
  EXPECT_NE(compound_key(0, 100, false), compound_key(0, 101, false));
}

TEST(DeviceHashMap, InsertAndCount) {
  DeviceHashMap map(64);
  EXPECT_TRUE(map.insert_key(10));
  EXPECT_FALSE(map.insert_key(10));  // duplicate
  EXPECT_TRUE(map.insert_key(11));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_FALSE(map.overflowed());
}

TEST(DeviceHashMap, AccumulateSums) {
  DeviceHashMap map(16);
  EXPECT_TRUE(map.accumulate(3, 1.5));
  EXPECT_TRUE(map.accumulate(3, 2.5));
  EXPECT_TRUE(map.accumulate(4, 1.0));
  const auto entries = map.extract();
  ASSERT_EQ(entries.size(), 2u);
  double total = 0.0;
  for (const auto& entry : entries) total += entry.value;
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(DeviceHashMap, ExtractMatchesInserted) {
  DeviceHashMap map(128);
  std::set<key64_t> expected;
  for (key64_t k = 1; k <= 100; k += 3) {
    map.insert_key(k);
    expected.insert(k);
  }
  std::set<key64_t> seen;
  for (const auto& entry : map.extract()) seen.insert(entry.key);
  EXPECT_EQ(seen, expected);
}

TEST(DeviceHashMap, ProbesGrowWithFill) {
  DeviceHashMap sparse(1024);
  DeviceHashMap dense(70);
  for (key64_t k = 1; k <= 64; ++k) {
    sparse.insert_key(k * 7919);
    dense.insert_key(k * 7919);
  }
  const double sparse_per_insert = static_cast<double>(sparse.probes()) / 64.0;
  const double dense_per_insert = static_cast<double>(dense.probes()) / 64.0;
  EXPECT_LT(sparse_per_insert, 1.5);
  EXPECT_GT(dense_per_insert, sparse_per_insert);
}

TEST(DeviceHashMap, OverflowDetected) {
  DeviceHashMap map(8);
  for (key64_t k = 1; k <= 8; ++k) EXPECT_TRUE(map.insert_key(k));
  EXPECT_TRUE(map.full());
  EXPECT_FALSE(map.insert_key(99));
  EXPECT_TRUE(map.overflowed());
  // Existing key still found even when full.
  EXPECT_FALSE(map.insert_key(4));
}

TEST(DeviceHashMap, ResetClears) {
  DeviceHashMap map(8);
  map.insert_key(1);
  map.insert_key(2);
  map.reset();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.overflowed());
  EXPECT_TRUE(map.insert_key(1));
}

TEST(DeviceHashMap, FillRate) {
  DeviceHashMap map(10);
  map.insert_key(1);
  map.insert_key(2);
  EXPECT_DOUBLE_EQ(map.fill_rate(), 0.2);
}

/// Capacities whose remainders are easiest to get wrong: the smallest,
/// powers of two and their neighbours, every kernel config's hash-map
/// capacities on each device preset with their images under the
/// `scratchpad_scale` faults, and the largest the map accepts.
std::vector<std::uint64_t> edge_capacities() {
  std::vector<std::uint64_t> caps = {1, 2, 3, 5, 7, 1000, UINT32_MAX - 1, UINT32_MAX};
  for (int k = 2; k <= 32; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    caps.push_back(p - 1);
    if (p <= UINT32_MAX) caps.push_back(p);
    if (p + 1 <= UINT32_MAX) caps.push_back(p + 1);
  }
  std::vector<FaultInjector> scales;
  for (const double scale : {1.0, 0.5, 0.25, 0.01}) {
    FaultSpec spec;
    spec.scratchpad_scale = scale;
    scales.emplace_back(spec);
  }
  for (const auto& device : {sim::DeviceSpec::titan_v(), sim::DeviceSpec::pascal_like(),
                             sim::DeviceSpec::a100_like()}) {
    for (const KernelConfig& config : kernel_configs(device)) {
      for (const FaultInjector& scale : scales) {
        caps.push_back(scale.scratchpad_capacity(config.symbolic_hash_capacity()));
        caps.push_back(scale.scratchpad_capacity(config.numeric_hash_capacity()));
      }
    }
  }
  return caps;
}

/// Hashes whose remainders are easiest to get wrong modulo `cap`, random
/// ones, and hashes of real compound keys, narrow and wide, as the map
/// forms them.
std::vector<std::uint64_t> edge_hashes(std::uint64_t cap, Xoshiro256& rng) {
  std::vector<std::uint64_t> hashes = {0, 1, cap - 1, cap, cap + 1, UINT64_MAX,
                                       UINT64_MAX - 1, UINT64_MAX - cap,
                                       (UINT64_MAX / cap) * cap,
                                       (UINT64_MAX / cap) * cap - 1};
  for (int i = 0; i < 2000; ++i) hashes.push_back(rng.next_u64());
  for (int i = 0; i < 2000; ++i) {
    const auto row = static_cast<int>(rng.next_below(32));
    const auto col = static_cast<index_t>(rng.next_below(kMaxColumns32Bit));
    hashes.push_back(compound_key(row, col, i % 2 == 0) * DeviceHashMap::kHashPrime);
  }
  return hashes;
}

TEST(HomeSlot, RemainderByMagicEqualsModulo) {
  Xoshiro256 rng(2019);
  for (const std::uint64_t cap : edge_capacities()) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    const unsigned __int128 magic = remainder_magic(cap);
    for (const std::uint64_t h : edge_hashes(cap, rng)) {
      ASSERT_EQ(remainder_by_magic(h, magic, cap), h % cap) << "hash " << h;
    }
  }
}

TEST(HomeSlot, MaskAndRemainderPathsEqualModulo) {
  // HomeSlot masks for powers of two and multiplies for the rest; both
  // paths must be the paper's remainder.
  Xoshiro256 rng(2020);
  std::size_t masked = 0;
  std::size_t multiplied = 0;
  for (const std::uint64_t cap : edge_capacities()) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    const HomeSlot home(cap);
    EXPECT_EQ(home.pow2, std::has_single_bit(cap));
    ++(home.pow2 ? masked : multiplied);
    for (const std::uint64_t h : edge_hashes(cap, rng)) {
      ASSERT_EQ(home(h), h % cap) << "hash " << h;
    }
  }
  // 1, 256..8192 (titan_v numeric) and 2^31 take the mask; 3·2^k (titan_v
  // symbolic), 13653 (a100 numeric) and the scaled images the remainder.
  EXPECT_GT(masked, 30u);
  EXPECT_GT(multiplied, 30u);
  for (const std::uint64_t cap : {std::uint64_t{1}, std::uint64_t{1} << 31}) {
    EXPECT_TRUE(HomeSlot(cap).pow2) << cap;
    EXPECT_EQ(HomeSlot(cap)(UINT64_MAX), UINT64_MAX % cap) << cap;
  }
}

TEST(HomeSlot, ProbeCountsFollowTheModuloHomeSlot) {
  // Keys chosen so that each one's home slot, key * prime % capacity, is
  // free and distinct: every seed, accumulate and lookup of them then costs
  // exactly one probe, as does a miss whose home slot is empty, which holds
  // only if the map uses that remainder as the home slot. Powers of two
  // (the mask path) and other capacities (the remainder path) alike.
  for (const std::size_t cap :
       {1u, 3u, 16u, 17u, 256u, 1000u, 4093u, 4096u, 6144u, 8192u}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    DeviceHashMap inserted(cap);
    DeviceHashMap seeded(cap);
    std::set<std::uint64_t> homes;
    std::vector<key64_t> keys;
    key64_t key = 0;
    for (; keys.size() < cap / 2 + 1 && key < 100000; ++key) {
      if (!homes.insert(key * DeviceHashMap::kHashPrime % cap).second) continue;
      keys.push_back(key);
      ASSERT_TRUE(inserted.insert_key(key));
      ASSERT_EQ(inserted.probes(), keys.size()) << "insert_key " << key;
      ASSERT_TRUE(seeded.seed_key(key));
      ASSERT_EQ(seeded.probes(), keys.size()) << "seed_key " << key;
    }
    // Absent keys whose home slot is still empty: each miss stops there.
    std::vector<key64_t> absent;
    for (; absent.size() < 8 && key < 200000; ++key) {
      if (homes.count(key * DeviceHashMap::kHashPrime % cap) == 0) absent.push_back(key);
    }
    std::size_t probes = seeded.probes();
    // Every other key is touched, so the lookups see hits and untouched seeds.
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      ASSERT_TRUE(seeded.accumulate_if_present(keys[i], 1.0));
      ASSERT_EQ(seeded.probes(), ++probes) << "accumulate_if_present " << keys[i];
    }
    for (const key64_t miss : absent) {
      ASSERT_FALSE(seeded.accumulate_if_present(miss, 1.0));
      ASSERT_EQ(seeded.probes(), ++probes) << "accumulate_if_present miss " << miss;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      value_t sum = 0.0;
      ASSERT_EQ(seeded.lookup_touched(keys[i], &sum), i % 2 == 0);
      ASSERT_EQ(seeded.probes(), ++probes) << "lookup_touched " << keys[i];
    }
    for (const key64_t miss : absent) {
      value_t sum = 0.0;
      ASSERT_FALSE(seeded.lookup_touched(miss, &sum));
      ASSERT_EQ(seeded.probes(), ++probes) << "lookup_touched miss " << miss;
    }
  }
}

TEST(DeviceHashMap, RejectsZeroCapacity) {
  EXPECT_THROW(DeviceHashMap(0), InvalidArgument);
}

}  // namespace
}  // namespace speck
