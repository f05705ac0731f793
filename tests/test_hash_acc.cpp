// Unit tests for the spilling hash accumulators (paper §4.3 global-memory
// fallback), now directly testable.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/prng.h"
#include "speck/hash_acc.h"

namespace speck {
namespace {

TEST(SymbolicAcc, CountsDistinctKeysWithoutSpill) {
  SymbolicHashAccumulator acc(64);
  for (key64_t k = 1; k <= 20; ++k) {
    acc.insert(compound_key(0, static_cast<index_t>(k), false));
    acc.insert(compound_key(0, static_cast<index_t>(k), false));  // duplicate
    acc.insert(compound_key(1, static_cast<index_t>(k), false));
  }
  EXPECT_FALSE(acc.spilled());
  const auto counts = acc.row_counts(2, false);
  EXPECT_EQ(counts[0], 20);
  EXPECT_EQ(counts[1], 20);
  EXPECT_EQ(acc.unique_keys(), 40u);
}

TEST(SymbolicAcc, SpillsWhenFullAndStaysExact) {
  SymbolicHashAccumulator acc(16);
  for (index_t c = 1; c <= 100; ++c) acc.insert(compound_key(0, c, false));
  EXPECT_TRUE(acc.spilled());
  EXPECT_GT(acc.moved_entries(), 0u);
  EXPECT_GT(acc.global_inserts(), 0u);
  const auto counts = acc.row_counts(1, false);
  EXPECT_EQ(counts[0], 100);
}

TEST(SymbolicAcc, DuplicatesDedupAcrossSpillBoundary) {
  SymbolicHashAccumulator acc(8);
  // Insert 1..6 locally, spill on 7..8, then repeat everything.
  for (int round = 0; round < 2; ++round) {
    for (index_t c = 1; c <= 20; ++c) acc.insert(compound_key(0, c, false));
  }
  EXPECT_EQ(acc.row_counts(1, false)[0], 20);
}

TEST(SymbolicAcc, ProbesCounted) {
  SymbolicHashAccumulator acc(1024);
  for (index_t c = 1; c <= 100; ++c) acc.insert(compound_key(0, c, false));
  EXPECT_GE(acc.probes(), 100u);
}

TEST(NumericAcc, AccumulatesValues) {
  NumericHashAccumulator acc(32);
  acc.accumulate(compound_key(0, 5, false), 1.5);
  acc.accumulate(compound_key(0, 5, false), 2.5);
  acc.accumulate(compound_key(1, 5, false), 1.0);
  const auto entries = acc.extract();
  ASSERT_EQ(entries.size(), 2u);
  double total = 0.0;
  for (const auto& entry : entries) total += entry.value;
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(NumericAcc, SpillPreservesPartialSums) {
  NumericHashAccumulator acc(8);
  // Key 3 accumulates both before and after the spill.
  acc.accumulate(compound_key(0, 3, false), 1.0);
  for (index_t c = 10; c < 30; ++c) acc.accumulate(compound_key(0, c, false), 0.5);
  ASSERT_TRUE(acc.spilled());
  acc.accumulate(compound_key(0, 3, false), 2.0);
  double key3 = 0.0;
  for (const auto& entry : acc.extract()) {
    if (key_column(entry.key, false) == 3) key3 += entry.value;
  }
  EXPECT_DOUBLE_EQ(key3, 3.0);
}

TEST(NumericAcc, ExtractCoversLocalAndGlobal) {
  NumericHashAccumulator acc(8);
  for (index_t c = 0; c < 50; ++c) acc.accumulate(compound_key(0, c + 1, false), 1.0);
  const auto entries = acc.extract();
  EXPECT_EQ(entries.size(), 50u);
}

/// hash-overflow-after values around a scratchpad of `capacity` slots.
std::vector<std::int64_t> overflow_limits(std::size_t capacity) {
  const auto cap = static_cast<std::int64_t>(capacity);
  return {1, 7, cap - 1, cap, cap + 1};
}

TEST(SymbolicAcc, SpillsAtTheSmallerOfCapacityAndForcedLimit) {
  constexpr std::size_t kCapacity = 16;
  constexpr index_t kKeys = 40;
  for (const std::int64_t after : overflow_limits(kCapacity)) {
    SCOPED_TRACE("hash-overflow-after " + std::to_string(after));
    FaultSpec spec;
    spec.hash_overflow_after = after;
    const FaultInjector faults(spec);
    const auto limit = std::min(kCapacity, static_cast<std::size_t>(after));
    SymbolicHashAccumulator acc(kCapacity, &faults);
    DeviceHashMap local(kCapacity);  // what the scratchpad holds before the spill
    for (index_t c = 0; c < kKeys; ++c) {
      const key64_t key = compound_key(0, c, false);
      // A capacity spill happens right after the insert that fills the
      // map; a forced one on the insert after the limit is reached.
      const bool spills_now = limit == kCapacity ? static_cast<std::size_t>(c) + 1 == limit
                                                 : static_cast<std::size_t>(c) == limit;
      if (static_cast<std::size_t>(c) < limit) local.insert_key(key);
      EXPECT_TRUE(acc.insert(key));
      EXPECT_EQ(acc.spilled(), static_cast<std::size_t>(c) + 1 > limit || spills_now)
          << "after key " << c;
    }
    EXPECT_EQ(acc.moved_entries(), limit);
    EXPECT_EQ(acc.global_inserts(), kKeys - limit);
    EXPECT_EQ(acc.probes(), local.probes());
    EXPECT_EQ(acc.row_counts(1, false)[0], kKeys);
  }
}

TEST(NumericAcc, SpillsAtTheSmallerOfCapacityAndForcedLimit) {
  constexpr std::size_t kCapacity = 16;
  constexpr index_t kKeys = 40;
  for (const std::int64_t after : overflow_limits(kCapacity)) {
    SCOPED_TRACE("hash-overflow-after " + std::to_string(after));
    FaultSpec spec;
    spec.hash_overflow_after = after;
    const FaultInjector faults(spec);
    const auto limit = std::min(kCapacity, static_cast<std::size_t>(after));
    NumericHashAccumulator acc(kCapacity, &faults);
    DeviceHashMap local(kCapacity);
    for (index_t c = 0; c < kKeys; ++c) {
      const key64_t key = compound_key(0, c, false);
      if (static_cast<std::size_t>(c) < limit) local.accumulate(key, 1.0);
      acc.accumulate(key, 1.0);
    }
    // Every key again: all of them now land in the spill map.
    for (index_t c = 0; c < kKeys; ++c) acc.accumulate(compound_key(0, c, false), 2.0);
    EXPECT_TRUE(acc.spilled());
    EXPECT_EQ(acc.moved_entries(), limit);
    EXPECT_EQ(acc.global_inserts(), 2 * kKeys - limit);
    EXPECT_EQ(acc.probes(), local.probes());
    const auto entries = acc.extract();
    ASSERT_EQ(entries.size(), static_cast<std::size_t>(kKeys));
    for (const auto& entry : entries) EXPECT_EQ(entry.value, 3.0);
  }
}

TEST(SymbolicAcc, InsertReturnsCountRowsLikeTheMapWalk) {
  // Random key streams with duplicates, interleaved over 5 local rows,
  // through natural spills (small capacities), forced ones and none. The
  // per-row sums of insert()'s "new key" results must equal row_counts().
  Xoshiro256 rng(4321);
  for (const bool wide : {false, true}) {
    for (const std::size_t capacity : {8u, 64u, 4096u}) {
      for (const std::int64_t after : {0, 5}) {
        SCOPED_TRACE(std::string(wide ? "wide" : "narrow") + " capacity " +
                     std::to_string(capacity) + " after " + std::to_string(after));
        FaultSpec spec;
        spec.hash_overflow_after = after;
        const FaultInjector faults(spec);
        SymbolicHashAccumulator acc(capacity, &faults);
        constexpr int kRows = 5;
        std::vector<index_t> counts(kRows, 0);
        for (int i = 0; i < 600; ++i) {
          const auto row = static_cast<int>(rng.next_below(kRows));
          // Few distinct columns per row, so most inserts are duplicates;
          // wide keys put half of them beyond 2^27.
          auto col = static_cast<index_t>(rng.next_below(90));
          if (wide && rng.next_below(2) == 0) col += kMaxColumns32Bit + 7;
          if (acc.insert(compound_key(row, col, wide))) ++counts[static_cast<std::size_t>(row)];
        }
        EXPECT_EQ(acc.spilled(), capacity < 450 || after != 0);
        EXPECT_EQ(counts, acc.row_counts(kRows, wide));
        index_t total = 0;
        for (const index_t n : counts) total += n;
        EXPECT_EQ(static_cast<std::size_t>(total), acc.unique_keys());
      }
    }
  }
}

}  // namespace
}  // namespace speck
