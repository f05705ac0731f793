// Unit tests for the spilling hash accumulators (paper §4.3 global-memory
// fallback), now directly testable.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "common/simd.h"
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

// --- Segment calls ----------------------------------------------------------
// The passes call insert_segment / accumulate_segment once per A entry. Each
// must leave every observable exactly as the per-key loop over the same B
// row would: contents, probes, moved entries, global inserts and the point
// at which the map spills.

std::vector<SimdBackend> all_backends() {
  std::vector<SimdBackend> out = {SimdBackend::kScalar};
  for (const SimdBackend b : {SimdBackend::kSse, SimdBackend::kNeon}) {
    if (simd::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// One A entry's work: a local row and the referenced B row.
struct Segment {
  int row = 0;
  value_t av = 0.0;
  std::vector<index_t> cols;  // distinct, as in a CSR row
  std::vector<value_t> vals;
};

/// Segments over `rows` local rows with columns drawn from a small range, so
/// keys repeat across segments; wide keys put half the columns past 2^27.
/// Empty segments and ones longer than the map occur too.
std::vector<Segment> random_segments(Xoshiro256& rng, int rows, bool wide) {
  std::vector<Segment> segments(60);
  for (Segment& seg : segments) {
    seg.row = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(rows)));
    seg.av = static_cast<value_t>(rng.next_below(1000)) / 7.0 - 50.0;
    const auto len = static_cast<std::size_t>(rng.next_below(24));
    std::set<index_t> cols;
    while (cols.size() < len) {
      auto col = static_cast<index_t>(rng.next_below(120));
      if (wide && rng.next_below(2) == 0) col += kMaxColumns32Bit + 3;
      cols.insert(col);
    }
    seg.cols.assign(cols.begin(), cols.end());
    for (std::size_t j = 0; j < seg.cols.size(); ++j) {
      seg.vals.push_back(static_cast<value_t>(rng.next_below(1 << 20)) / 1024.0);
    }
  }
  return segments;
}

/// Capacities and hash-overflow-after values to sweep: natural spills,
/// forced ones below and at the capacity, and none.
struct SegmentCase {
  std::size_t capacity;
  std::int64_t after;
};
std::vector<SegmentCase> segment_cases() {
  return {{8, 0}, {16, 0}, {64, 0}, {4096, 0}, {16, 1}, {16, 5},
          {16, 15}, {16, 16}, {16, 17}, {64, 40}};
}

template <typename Acc>
void expect_same_counters(const Acc& segmented, const Acc& per_key, std::size_t seg) {
  ASSERT_EQ(segmented.spilled(), per_key.spilled()) << "after segment " << seg;
  ASSERT_EQ(segmented.probes(), per_key.probes()) << "after segment " << seg;
  ASSERT_EQ(segmented.moved_entries(), per_key.moved_entries())
      << "after segment " << seg;
  ASSERT_EQ(segmented.global_inserts(), per_key.global_inserts())
      << "after segment " << seg;
}

TEST(SegmentCalls, SymbolicSegmentMatchesThePerKeyLoop) {
  Xoshiro256 rng(7001);
  for (const bool wide : {false, true}) {
    for (const SimdBackend backend : all_backends()) {
      for (const SegmentCase& c : segment_cases()) {
        SCOPED_TRACE(std::string(wide ? "wide" : "narrow") + " " +
                     simd::backend_name(backend) + " capacity " +
                     std::to_string(c.capacity) + " after " + std::to_string(c.after));
        FaultSpec spec;
        spec.hash_overflow_after = c.after;
        const FaultInjector faults(spec);
        SymbolicHashAccumulator segmented(c.capacity, &faults, backend);
        SymbolicHashAccumulator per_key(c.capacity, &faults, backend);
        constexpr int kRows = 5;
        const std::vector<Segment> segments = random_segments(rng, kRows, wide);
        std::set<key64_t> distinct;  // the oracle
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const Segment& seg = segments[s];
          const key64_t row_bits = compound_key(seg.row, 0, wide);
          std::size_t added = 0;
          for (const index_t col : seg.cols) {
            if (per_key.insert(compound_key(seg.row, col, wide))) ++added;
            distinct.insert(compound_key(seg.row, col, wide));
          }
          ASSERT_EQ(segmented.insert_segment(row_bits, seg.cols), added)
              << "segment " << s;
          expect_same_counters(segmented, per_key, s);
          ASSERT_EQ(segmented.unique_keys(), distinct.size()) << "segment " << s;
        }
        EXPECT_EQ(segmented.row_counts(kRows, wide), per_key.row_counts(kRows, wide));
      }
    }
  }
}

/// Entries sorted by key, for comparing maps with the same contents.
std::vector<DeviceHashMap::Entry> sorted_entries(const NumericHashAccumulator& acc) {
  std::vector<DeviceHashMap::Entry> entries = acc.extract();
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) { return x.key < y.key; });
  return entries;
}

TEST(SegmentCalls, NumericSegmentMatchesThePerKeyLoop) {
  Xoshiro256 rng(7002);
  for (const bool wide : {false, true}) {
    for (const SimdBackend backend : all_backends()) {
      for (const SegmentCase& c : segment_cases()) {
        SCOPED_TRACE(std::string(wide ? "wide" : "narrow") + " " +
                     simd::backend_name(backend) + " capacity " +
                     std::to_string(c.capacity) + " after " + std::to_string(c.after));
        FaultSpec spec;
        spec.hash_overflow_after = c.after;
        const FaultInjector faults(spec);
        NumericHashAccumulator segmented(c.capacity, &faults, backend);
        NumericHashAccumulator per_key(c.capacity, &faults, backend);
        const std::vector<Segment> segments = random_segments(rng, 5, wide);
        std::map<key64_t, value_t> sums;  // the oracle, summed in stream order
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const Segment& seg = segments[s];
          for (std::size_t j = 0; j < seg.cols.size(); ++j) {
            per_key.accumulate(compound_key(seg.row, seg.cols[j], wide),
                               seg.av * seg.vals[j]);
            sums[compound_key(seg.row, seg.cols[j], wide)] += seg.av * seg.vals[j];
          }
          segmented.accumulate_segment(compound_key(seg.row, 0, wide), seg.cols,
                                       seg.vals, seg.av);
          expect_same_counters(segmented, per_key, s);
        }
        const auto got = sorted_entries(segmented);
        const auto want = sorted_entries(per_key);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(got.size(), sums.size());
        auto oracle = sums.begin();
        for (std::size_t e = 0; e < got.size(); ++e, ++oracle) {
          EXPECT_EQ(got[e].key, oracle->first);
          EXPECT_EQ(got[e].value, oracle->second) << "key " << got[e].key;
          EXPECT_EQ(got[e].key, want[e].key);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e].value),
                    std::bit_cast<std::uint64_t>(want[e].value))
              << "key " << got[e].key;
        }
      }
    }
  }
}

TEST(SegmentCalls, MaskedSegmentMatchesThePerKeyLoop) {
  Xoshiro256 rng(7003);
  for (const bool wide : {false, true}) {
    for (const SimdBackend backend : all_backends()) {
      for (const SegmentCase& c : segment_cases()) {
        SCOPED_TRACE(std::string(wide ? "wide" : "narrow") + " " +
                     simd::backend_name(backend) + " capacity " +
                     std::to_string(c.capacity) + " after " + std::to_string(c.after));
        FaultSpec spec;
        spec.hash_overflow_after = c.after;
        const FaultInjector faults(spec);
        MaskedNumericAccumulator segmented;
        MaskedNumericAccumulator per_key;
        segmented.begin_block(c.capacity, &faults, backend);
        per_key.begin_block(c.capacity, &faults, backend);
        // The mask row: every third column of the range the segments draw
        // from (more than some capacities hold, so those spill while
        // seeding).
        std::vector<index_t> mask_cols;
        for (index_t col = 0; col < 120; col += 3) mask_cols.push_back(col);
        if (wide) {
          for (index_t col = 0; col < 120; col += 3) {
            mask_cols.push_back(col + kMaxColumns32Bit + 3);
          }
        }
        std::vector<key64_t> mask;
        for (const index_t col : mask_cols) mask.push_back(compound_key(0, col, wide));
        for (const key64_t key : mask) per_key.seed(key);
        segmented.seed_segment(compound_key(0, 0, wide), mask_cols);
        expect_same_counters(segmented, per_key, 0);
        const std::vector<Segment> segments = random_segments(rng, 1, wide);
        // The oracle: sums of the products landing on a mask column.
        std::map<key64_t, value_t> sums;
        const std::set<key64_t> admissible(mask.begin(), mask.end());
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const Segment& seg = segments[s];
          for (std::size_t j = 0; j < seg.cols.size(); ++j) {
            const key64_t key = compound_key(0, seg.cols[j], wide);
            per_key.accumulate(key, seg.av * seg.vals[j]);
            if (admissible.count(key) != 0) sums[key] += seg.av * seg.vals[j];
          }
          segmented.accumulate_segment(compound_key(0, 0, wide), seg.cols, seg.vals,
                                       seg.av);
          expect_same_counters(segmented, per_key, s);
        }
        std::vector<std::pair<std::size_t, value_t>> got;
        segmented.lookup_segment(compound_key(0, 0, wide), mask_cols,
                                 [&](std::size_t j, value_t sum) {
                                   got.emplace_back(j, sum);
                                 });
        std::vector<std::pair<std::size_t, value_t>> want;
        for (std::size_t j = 0; j < mask.size(); ++j) {
          value_t sum = 0.0;
          if (per_key.lookup_touched(mask[j], &sum)) want.emplace_back(j, sum);
        }
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(got.size(), sums.size());
        for (std::size_t e = 0; e < got.size(); ++e) {
          ASSERT_EQ(got[e].first, want[e].first);
          EXPECT_EQ(got[e].second, sums.at(mask[got[e].first]));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e].second),
                    std::bit_cast<std::uint64_t>(want[e].second));
        }
        expect_same_counters(segmented, per_key, segments.size());
      }
    }
  }
}

TEST(SegmentCalls, ReseededSlotsStartUntouched) {
  // A reused accumulator's slots keep the last block's touched marks until
  // seeding clears them: the second block touches nothing, so nothing may
  // read back.
  const std::vector<index_t> cols = {2, 5, 8, 13, 21};
  const std::vector<value_t> vals(cols.size(), 1.0);
  for (const SimdBackend backend : all_backends()) {
    SCOPED_TRACE(simd::backend_name(backend));
    MaskedNumericAccumulator acc;
    std::size_t hits = 0;
    const auto count = [&](std::size_t, value_t) { ++hits; };
    acc.begin_block(64, nullptr, backend);
    acc.seed_segment(0, cols);
    acc.accumulate_segment(0, cols, vals, 3.0);
    acc.lookup_segment(0, cols, count);
    EXPECT_EQ(hits, cols.size());
    hits = 0;
    acc.begin_block(64, nullptr, backend);
    acc.seed_segment(0, cols);
    acc.lookup_segment(0, cols, count);
    EXPECT_EQ(hits, 0u);
  }
}

TEST(SegmentCalls, SegmentWhoseLastKeyFillsTheMapSpillsAtOnce) {
  constexpr std::size_t kCapacity = 8;
  for (const SimdBackend backend : all_backends()) {
    SCOPED_TRACE(simd::backend_name(backend));
    const std::vector<index_t> cols = {3, 9, 11, 20, 21, 40, 41, 77};
    const std::vector<value_t> vals(cols.size(), 1.5);
    SymbolicHashAccumulator symbolic(kCapacity, nullptr, backend);
    EXPECT_EQ(symbolic.insert_segment(compound_key(1, 0, false), cols), cols.size());
    EXPECT_TRUE(symbolic.spilled());
    EXPECT_EQ(symbolic.moved_entries(), kCapacity);
    EXPECT_EQ(symbolic.global_inserts(), 0u);
    NumericHashAccumulator numeric(kCapacity, nullptr, backend);
    numeric.accumulate_segment(compound_key(1, 0, false), cols, vals, 2.0);
    EXPECT_TRUE(numeric.spilled());
    EXPECT_EQ(numeric.moved_entries(), kCapacity);
    EXPECT_EQ(numeric.global_inserts(), 0u);
    // One key short of full: no spill yet.
    SymbolicHashAccumulator short_of_full(kCapacity, nullptr, backend);
    EXPECT_EQ(short_of_full.insert_segment(
                  0, std::span<const index_t>(cols.data(), cols.size() - 1)),
              cols.size() - 1);
    EXPECT_FALSE(short_of_full.spilled());
    // A forced limit reached by a segment's last key spills on the next key.
    FaultSpec spec;
    spec.hash_overflow_after = 4;
    const FaultInjector faults(spec);
    SymbolicHashAccumulator forced(kCapacity, &faults, backend);
    EXPECT_EQ(forced.insert_segment(0, std::span<const index_t>(cols.data(), 4)), 4u);
    EXPECT_FALSE(forced.spilled());
    EXPECT_EQ(forced.insert_segment(0, std::span<const index_t>(cols.data(), 0)), 0u);
    EXPECT_FALSE(forced.spilled());
    EXPECT_EQ(forced.insert_segment(0, std::span<const index_t>(cols.data() + 4, 1)), 1u);
    EXPECT_TRUE(forced.spilled());
    EXPECT_EQ(forced.moved_entries(), 4u);
    EXPECT_EQ(forced.global_inserts(), 1u);
  }
}

}  // namespace
}  // namespace speck
