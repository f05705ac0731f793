// The zero-allocation hot path: FlatSpillMap semantics, DeviceHashMap reuse
// against fresh maps, accumulator begin_block() equivalence, the row sweep's
// unique-row stamps, steady-state allocation accounting, and the headline
// guarantee that per-worker workspace reuse keeps CSR output, simulated
// seconds and every PassStats counter bit-identical across thread counts —
// including under forced spill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_counter.h"
#include "common/fault_injection.h"
#include "common/prng.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "speck/flat_map.h"
#include "speck/hash_acc.h"
#include "speck/hash_map.h"
#include "speck/kernels_detail.h"
#include "speck/speck.h"
#include "speck/workspace.h"

namespace speck {
namespace {

// ---------------------------------------------------------------------------
// FlatSpillMap

TEST(FlatSpillMap, InsertDeduplicates) {
  FlatSpillMap map;
  EXPECT_TRUE(map.insert(7));
  EXPECT_TRUE(map.insert(9));
  EXPECT_FALSE(map.insert(7));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatSpillMap, AccumulateSumsPerKey) {
  FlatSpillMap map;
  map.accumulate(3, 1.5);
  map.accumulate(5, 2.0);
  map.accumulate(3, 0.5);
  std::vector<std::pair<key64_t, value_t>> entries;
  map.for_each([&](key64_t k, value_t v) { entries.emplace_back(k, v); });
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<key64_t, value_t>{3, 2.0}));
  EXPECT_EQ(entries[1], (std::pair<key64_t, value_t>{5, 2.0}));
}

TEST(FlatSpillMap, GrowthKeepsEveryEntry) {
  FlatSpillMap map;
  constexpr key64_t kKeys = 10000;
  for (key64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(map.insert(k * 2654435761ull));
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  std::set<key64_t> seen;
  map.for_each([&](key64_t k, value_t) { seen.insert(k); });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kKeys));
  for (key64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(seen.count(k * 2654435761ull)) << k;
  }
}

TEST(FlatSpillMap, ClearIsReusableAndKeepsStorage) {
  FlatSpillMap map;
  for (key64_t k = 0; k < 1000; ++k) map.insert(k);
  const std::size_t slots = map.slot_count();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.slot_count(), slots);
  // Old keys are forgotten: inserting them again reports them as new.
  EXPECT_TRUE(map.insert(0));
  EXPECT_TRUE(map.insert(999));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatSpillMap, ClearedMapAllocatesNothing) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  FlatSpillMap map;
  for (key64_t k = 0; k < 1000; ++k) map.insert(k);
  map.clear();
  const std::size_t before = detail::alloc_events_now();
  for (key64_t k = 0; k < 1000; ++k) map.insert(k);
  map.clear();
  EXPECT_EQ(detail::alloc_events_now(), before);
}

// ---------------------------------------------------------------------------
// DeviceHashMap reuse

TEST(DeviceHashMapReuse, ReconfigureBehavesLikeFreshMap) {
  // A map that shrank logically (capacity 64 -> 16) must probe exactly like
  // a fresh capacity-16 map even though its storage still holds 64 slots.
  DeviceHashMap reused(64);
  for (key64_t k = 0; k < 40; ++k) reused.insert_key(k * 7);
  reused.reconfigure(16);

  DeviceHashMap fresh(16);
  for (key64_t k = 0; k < 12; ++k) {
    EXPECT_EQ(reused.insert_key(k * 13), fresh.insert_key(k * 13)) << k;
  }
  EXPECT_EQ(reused.probes(), fresh.probes());
  EXPECT_EQ(reused.size(), fresh.size());
  const auto a = reused.extract();
  const auto b = fresh.extract();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(DeviceHashMapReuse, ResetForgetsContentsInO1) {
  DeviceHashMap map(32);
  for (key64_t k = 0; k < 20; ++k) map.insert_key(k);
  map.reset();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.overflowed());
  // Every old key inserts as new again.
  EXPECT_TRUE(map.insert_key(0));
  EXPECT_TRUE(map.insert_key(19));
}

TEST(DeviceHashMapReuse, ExtractIntoAppendsInSlotOrder) {
  DeviceHashMap map(16);
  map.accumulate(3, 1.0);
  map.accumulate(9, 2.0);
  std::vector<DeviceHashMap::Entry> out;
  map.extract_into(out);
  const auto reference = map.extract();
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, reference[i].key);
    EXPECT_EQ(out[i].value, reference[i].value);
  }
}

/// One DeviceHashMap operation of the differential test.
struct MapOp {
  enum Kind { kReconfigure, kReset, kInsert, kAccumulate, kSeed, kAddIfPresent, kLookup };
  Kind kind;
  std::size_t capacity;  ///< kReconfigure only
  key64_t key;
  value_t value;
};

/// Applies `op`; returns its bool result and, for lookups, the value read
/// (else 0.0). Reconfigure and reset report false.
std::pair<bool, value_t> apply(DeviceHashMap& map, const MapOp& op) {
  value_t read = 0.0;
  switch (op.kind) {
    case MapOp::kReconfigure: map.reconfigure(op.capacity); return {false, read};
    case MapOp::kReset: map.reset(); return {false, read};
    case MapOp::kInsert: return {map.insert_key(op.key), read};
    case MapOp::kAccumulate: return {map.accumulate(op.key, op.value), read};
    case MapOp::kSeed: return {map.seed_key(op.key), read};
    case MapOp::kAddIfPresent: return {map.accumulate_if_present(op.key, op.value), read};
    case MapOp::kLookup: {
      const bool hit = map.lookup_touched(op.key, &read);
      return {hit, read};
    }
  }
  return {false, read};
}

/// for_each's visit sequence with bitwise values (-0.0 differs from +0.0).
std::vector<std::pair<key64_t, std::uint64_t>> visits(const DeviceHashMap& map) {
  std::vector<std::pair<key64_t, std::uint64_t>> out;
  map.for_each([&](key64_t key, value_t value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    out.emplace_back(key, bits);
  });
  return out;
}

TEST(DeviceHashMapReuse, RandomOperationsMatchAFreshMapOnEveryBackend) {
  // One long-lived map takes random reconfigures (shrinking and growing),
  // resets, inserts and masked operations. After every step a fresh map
  // replays the ops since the last reconfigure and must agree on the
  // result, the probe count, the contents and their slot order. A segment
  // between resets is either numeric (insert / accumulate) or masked
  // (seed / accumulate-if-present / lookup), as in the accumulators.
  static constexpr std::size_t kCapacities[] = {1, 3, 15, 16, 17, 40, 64, 100, 250};
  static constexpr value_t kValues[] = {-0.0, 0.0, 0.5, -1.0, 3.0};
  std::vector<SimdBackend> backends = {SimdBackend::kScalar};
  for (const SimdBackend b : {SimdBackend::kSse, SimdBackend::kNeon}) {
    if (simd::backend_available(b)) backends.push_back(b);
  }
  for (const SimdBackend backend : backends) {
    SCOPED_TRACE(simd::backend_name(backend));
    Xoshiro256 rng(7301);
    DeviceHashMap reused;
    reused.set_backend(backend);
    std::vector<MapOp> segment;  // ops since the last reconfigure
    bool masked = false;
    for (int step = 0; step < 3000; ++step) {
      MapOp op{};
      const std::uint64_t roll = rng.next_below(100);
      if (step == 0 || roll < 3) {
        op.kind = MapOp::kReconfigure;
        op.capacity = kCapacities[rng.next_below(std::size(kCapacities))];
        segment.clear();
        masked = rng.next_below(2) == 0;
      } else if (roll < 6) {
        op.kind = MapOp::kReset;
        masked = rng.next_below(2) == 0;
      } else {
        const std::size_t capacity = segment.front().capacity;
        op.key = compound_key(static_cast<int>(rng.next_below(4)),
                              static_cast<index_t>(rng.next_below(2 * capacity + 2)),
                              /*wide_keys=*/false);
        op.value = kValues[rng.next_below(std::size(kValues))];
        const std::uint64_t pick = rng.next_below(masked ? 3 : 2);
        op.kind = masked ? (pick == 0   ? MapOp::kSeed
                            : pick == 1 ? MapOp::kAddIfPresent
                                        : MapOp::kLookup)
                         : (pick == 0 ? MapOp::kInsert : MapOp::kAccumulate);
      }
      segment.push_back(op);
      const auto got = apply(reused, op);

      DeviceHashMap fresh;
      fresh.set_backend(backend);
      std::pair<bool, value_t> want;
      for (const MapOp& o : segment) want = apply(fresh, o);
      SCOPED_TRACE("step " + std::to_string(step));
      ASSERT_EQ(got.first, want.first);
      ASSERT_EQ(std::memcmp(&got.second, &want.second, sizeof(value_t)), 0);
      ASSERT_EQ(reused.probes(), fresh.probes());
      ASSERT_EQ(reused.size(), fresh.size());
      ASSERT_EQ(reused.overflowed(), fresh.overflowed());
      ASSERT_EQ(visits(reused), visits(fresh));
    }
  }
}

// ---------------------------------------------------------------------------
// Accumulator reuse via begin_block()

TEST(AccumulatorReuse, SymbolicReusedMatchesFresh) {
  SymbolicHashAccumulator reused;
  // Dirty the accumulator with a first block, including a spill.
  const FaultSpec spec = parse_fault_spec("hash-overflow-after=8");
  const FaultInjector injector(spec);
  reused.begin_block(64, &injector);
  for (key64_t k = 0; k < 32; ++k) reused.insert(k);
  ASSERT_TRUE(reused.spilled());

  // Second block without faults must match a freshly constructed one.
  reused.begin_block(32, nullptr);
  SymbolicHashAccumulator fresh(32, nullptr);
  for (key64_t k = 0; k < 20; ++k) {
    reused.insert(compound_key(static_cast<int>(k % 3), static_cast<index_t>(k), false));
    fresh.insert(compound_key(static_cast<int>(k % 3), static_cast<index_t>(k), false));
  }
  EXPECT_EQ(reused.spilled(), fresh.spilled());
  EXPECT_EQ(reused.probes(), fresh.probes());
  EXPECT_EQ(reused.moved_entries(), fresh.moved_entries());
  EXPECT_EQ(reused.global_inserts(), fresh.global_inserts());
  EXPECT_EQ(reused.row_counts(3, false), fresh.row_counts(3, false));
}

TEST(AccumulatorReuse, NumericReusedMatchesFreshUnderSpill) {
  const FaultSpec spec = parse_fault_spec("hash-overflow-after=8");
  const FaultInjector injector(spec);
  NumericHashAccumulator reused;
  reused.begin_block(64, &injector);
  for (key64_t k = 0; k < 32; ++k) reused.accumulate(k, 1.0);
  ASSERT_TRUE(reused.spilled());

  reused.begin_block(64, &injector);
  NumericHashAccumulator fresh(64, &injector);
  for (key64_t k = 0; k < 32; ++k) {
    reused.accumulate(k * 3, 0.5);
    fresh.accumulate(k * 3, 0.5);
  }
  EXPECT_EQ(reused.spilled(), fresh.spilled());
  EXPECT_EQ(reused.probes(), fresh.probes());
  EXPECT_EQ(reused.moved_entries(), fresh.moved_entries());
  EXPECT_EQ(reused.global_inserts(), fresh.global_inserts());
  auto sort_by_key = [](std::vector<DeviceHashMap::Entry> v) {
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return v;
  };
  const auto a = sort_by_key(reused.extract());
  const auto b = sort_by_key(fresh.extract());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(AccumulatorReuse, WarmAccumulatorBlockIsAllocationFree) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  NumericHashAccumulator acc;
  std::vector<DeviceHashMap::Entry> entries;
  // Warm-up block grows the map storage and the entry buffer.
  acc.begin_block(256, nullptr);
  for (key64_t k = 0; k < 128; ++k) acc.accumulate(k, 1.0);
  acc.extract_into(entries);
  // A same-shape block on the warm accumulator must not allocate at all.
  const std::size_t before = detail::alloc_events_now();
  acc.begin_block(256, nullptr);
  for (key64_t k = 0; k < 128; ++k) acc.accumulate(k, 2.0);
  acc.extract_into(entries);
  EXPECT_EQ(detail::alloc_events_now(), before);
  EXPECT_EQ(entries.size(), 128u);
}

// ---------------------------------------------------------------------------
// Row sweep: the unique-B-row stamps carry nothing between blocks

TEST(RowSweep, ReusedWorkspaceChargesLikeAFreshOne) {
  // One workspace charges every block of two products over B matrices of
  // different heights, in turn; each block's cost must equal the one a
  // fresh workspace charges. The second round starts just below the stamp
  // wrap, so the refill runs mid-sequence.
  const sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  const sim::CostModel model;
  const Csr b_small = gen::power_law(300, 300, 6, 1.8, 60, 7311);
  const Csr b_tall = gen::power_law(700, 500, 4, 1.9, 90, 7313);
  const Csr a_small = gen::power_law(120, 300, 5, 1.8, 80, 7315);
  const Csr a_tall = gen::power_law(120, 700, 5, 1.8, 80, 7317);
  struct Product {
    const Csr* a;
    const Csr* b;
  };
  const Product products[] = {{&a_small, &b_small}, {&a_tall, &b_tall}, {&a_small, &b_small}};
  std::vector<index_t> order(120);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<index_t>(i);

  for (const std::uint32_t start : {0u, std::numeric_limits<std::uint32_t>::max() - 3}) {
    SCOPED_TRACE(start);
    KernelWorkspace reused;
    reused.sweep_stamp_counter() = start;
    for (int round = 0; round < 2; ++round) {
      for (const Product& p : products) {
        KernelContext ctx;
        ctx.a = p.a;
        ctx.b = p.b;
        ctx.device = &device;
        for (std::size_t begin = 0; begin < order.size(); begin += 7) {
          const std::span<const index_t> rows(
              order.data() + begin, std::min<std::size_t>(7, order.size() - begin));
          const bool numeric = begin % 2 == 0;
          sim::BlockCost got(256, 48u << 10, model);
          detail::charge_row_sweep(got, ctx, rows, 8, numeric, reused);
          KernelWorkspace fresh;
          sim::BlockCost want(256, 48u << 10, model);
          detail::charge_row_sweep(want, ctx, rows, 8, numeric, fresh);
          ASSERT_EQ(got.cycles(), want.cycles()) << "block at row " << begin;
          ASSERT_EQ(got.global_transactions(), want.global_transactions())
              << "block at row " << begin;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline: steady-state zero allocation and cross-thread bit-identity

struct PipelineRun {
  Csr c;
  double seconds = 0.0;
  SpeckDiagnostics diag;
};

PipelineRun run_pipeline(Speck& speck, const gen::CorpusEntry& entry) {
  SpGemmResult result = speck.multiply(entry.a, entry.b);
  EXPECT_TRUE(result.ok()) << entry.name << ": " << result.failure_reason;
  return PipelineRun{std::move(result.c), result.seconds,
                     speck.last_diagnostics()};
}

void expect_identical(const PipelineRun& serial, const PipelineRun& parallel,
                      const std::string& name, int threads) {
  SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
  ASSERT_EQ(parallel.c.nnz(), serial.c.nnz());
  const auto so = serial.c.row_offsets();
  const auto po = parallel.c.row_offsets();
  ASSERT_TRUE(std::equal(so.begin(), so.end(), po.begin()));
  const auto sc = serial.c.col_indices();
  const auto pc = parallel.c.col_indices();
  ASSERT_TRUE(std::equal(sc.begin(), sc.end(), pc.begin()));
  const auto sv = serial.c.values();
  const auto pv = parallel.c.values();
  for (std::size_t i = 0; i < sv.size(); ++i) {
    ASSERT_EQ(sv[i], pv[i]) << "value " << i;
  }
  EXPECT_EQ(parallel.seconds, serial.seconds);
  // Every container-independent counter must match exactly: the workspace
  // maps replaced node-based containers, and any probe-sequence or spill
  // divergence would show up here. (hot_path_allocs is warm-up dependent
  // and deliberately excluded.)
  for (const bool numeric : {false, true}) {
    const PassStats& s = numeric ? serial.diag.numeric : serial.diag.symbolic;
    const PassStats& p = numeric ? parallel.diag.numeric : parallel.diag.symbolic;
    SCOPED_TRACE(numeric ? "numeric" : "symbolic");
    EXPECT_EQ(p.seconds, s.seconds);
    EXPECT_EQ(p.direct_rows, s.direct_rows);
    EXPECT_EQ(p.dense_rows, s.dense_rows);
    EXPECT_EQ(p.hash_rows, s.hash_rows);
    EXPECT_EQ(p.global_hash_blocks, s.global_hash_blocks);
    EXPECT_EQ(p.hash_probes, s.hash_probes);
    EXPECT_EQ(p.moved_entries, s.moved_entries);
    EXPECT_EQ(p.global_inserts, s.global_inserts);
  }
}

TEST(WorkspacePipeline, BitIdenticalAcrossThreadCountsWithWarmWorkspaces) {
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig serial_cfg;
    serial_cfg.host_threads = 1;
    Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, serial_cfg);
    // Two runs on the same instance: the second uses fully warm workspaces
    // and must be bit-identical to the first (cold) one.
    const PipelineRun cold = run_pipeline(serial_speck, entry);
    const PipelineRun warm = run_pipeline(serial_speck, entry);
    expect_identical(cold, warm, entry.name + " cold-vs-warm", 1);

    for (const int threads : {2, 8}) {
      SpeckConfig cfg;
      cfg.host_threads = threads;
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      expect_identical(cold, run_pipeline(speck, entry), entry.name, threads);
      expect_identical(cold, run_pipeline(speck, entry),
                       entry.name + " warm", threads);
    }
  }
}

TEST(WorkspacePipeline, BitIdenticalAcrossThreadCountsUnderForcedSpill) {
  // hash-overflow-after forces every hash block onto the global spill path,
  // exercising moved_entries/global_inserts; results and counters must still
  // match across thread counts.
  int spilled_blocks = 0;
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig serial_cfg;
    serial_cfg.host_threads = 1;
    // The spilled_blocks tally below counts exact-pipeline global hash
    // blocks; pin exact planning so SPECK_PLANNING=estimated can't zero it.
    serial_cfg.planning = PlanningMode::kExact;
    serial_cfg.faults = parse_fault_spec("hash-overflow-after=16");
    Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, serial_cfg);
    const PipelineRun serial = run_pipeline(serial_speck, entry);
    spilled_blocks += serial.diag.symbolic.global_hash_blocks +
                      serial.diag.numeric.global_hash_blocks;

    for (const int threads : {8}) {
      SpeckConfig cfg;
      cfg.host_threads = threads;
      cfg.planning = PlanningMode::kExact;
      cfg.faults = parse_fault_spec("hash-overflow-after=16");
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      expect_identical(serial, run_pipeline(speck, entry), entry.name, threads);
      expect_identical(serial, run_pipeline(speck, entry),
                       entry.name + " warm", threads);
    }
  }
  // Trivial corpus entries (identity, empty) never reach 16 keys; the spec
  // must have fired on the real matrices or this test exercised nothing.
  EXPECT_GT(spilled_blocks, 0) << "fault spec did not force any spill";
}

TEST(WorkspacePipeline, SteadyStateBlocksAreAllocationFree) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  // After one cold multiply the instance's workspaces are warm; from then on
  // every block body must run without any heap allocation, on every further
  // multiply of the same instance (single worker: assignment deterministic).
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig cfg;
    cfg.host_threads = 1;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    (void)run_pipeline(speck, entry);  // warm-up
    for (int rep = 0; rep < 2; ++rep) {
      const PipelineRun run = run_pipeline(speck, entry);
      EXPECT_EQ(run.diag.symbolic.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
      EXPECT_EQ(run.diag.numeric.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
    }
  }
}

TEST(WorkspacePipeline, NullWorkspacePoolFallbackMatches) {
  // A KernelContext without a workspace pool (external callers of
  // run_symbolic/run_numeric) must produce the same result via the
  // pass-local fallback pool. The public pipeline always sets the pool, so
  // compare a fresh instance (cold pool) with a warm one.
  const auto corpus = gen::test_corpus();
  ASSERT_FALSE(corpus.empty());
  const gen::CorpusEntry& entry = corpus.front();
  SpeckConfig cfg;
  cfg.host_threads = 1;
  Speck warm(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  (void)run_pipeline(warm, entry);
  const PipelineRun warm_run = run_pipeline(warm, entry);
  Speck cold(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  expect_identical(run_pipeline(cold, entry), warm_run, entry.name, 1);
}

TEST(WorkspacePool, EnsureGrowsAndKeepsAddressesStable) {
  WorkspacePool pool;
  pool.ensure(2);
  ASSERT_EQ(pool.size(), 2);
  KernelWorkspace* first = &pool.at(0);
  first->entries().resize(128);
  pool.ensure(8);
  EXPECT_EQ(pool.size(), 8);
  EXPECT_EQ(&pool.at(0), first);           // stable across growth
  EXPECT_EQ(pool.at(0).entries().size(), 128u);  // warm state survives
  pool.ensure(4);
  EXPECT_EQ(pool.size(), 8);  // never shrinks
}

}  // namespace
}  // namespace speck
