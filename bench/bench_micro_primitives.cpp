// Google-benchmark microbenchmarks for the host-side primitives the
// simulator and oracle are built from. These measure *real* wall-clock cost
// (unlike the report binaries, which print simulated device times) and guard
// against performance regressions in the emulation layer itself.
#include <benchmark/benchmark.h>

#include "common/prng.h"
#include "common/sorting.h"
#include "gen/generators.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "matrix/permute.h"
#include "ref/gustavson.h"
#include "speck/dense_acc.h"
#include "speck/hash_map.h"
#include "speck/speck.h"

namespace speck {
namespace {

void BM_HashMapInsert(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto fill = static_cast<std::size_t>(capacity * 2 / 3);
  Xoshiro256 rng(1);
  std::vector<key64_t> keys(fill);
  for (auto& k : keys) k = rng.next_u64() >> 1;
  for (auto _ : state) {
    DeviceHashMap map(capacity);
    for (const key64_t k : keys) map.insert_key(k);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fill));
}
// Map capacities of the three home-slot shapes: powers of two (the
// numeric maps on titan_v and pascal) take a mask, 3·2^k (their symbolic
// maps) and 3413 (a100's numeric 13653 at scratchpad_scale 0.25) the
// 128-bit remainder.
BENCHMARK(BM_HashMapInsert)->Arg(1 << 10)->Arg(1 << 14)->Arg(3 << 12)->Arg(3413);

void BM_HashMapAccumulate(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(2);
  std::vector<key64_t> keys(capacity);  // ~50% duplicates
  for (auto& k : keys) k = rng.next_below(capacity / 2) + 1;
  for (auto _ : state) {
    DeviceHashMap map(capacity);
    for (const key64_t k : keys) map.accumulate(k, 1.0);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_HashMapAccumulate)->Arg(1 << 11)->Arg(3 << 11)->Arg(3413);

/// 1M-nnz banded pattern for the two plan-cache hit-path primitives.
const Csr& hit_path_pattern() {
  static const Csr m = gen::banded(100000, 40, 10, 5);
  return m;
}

std::int64_t pattern_bytes(const Csr& m) {
  return static_cast<std::int64_t>(m.row_offsets().size_bytes() +
                                   m.col_indices().size_bytes());
}

void BM_PatternHash(benchmark::State& state) {
  const Csr& m = hit_path_pattern();
  for (auto _ : state) benchmark::DoNotOptimize(csr_pattern_hash(m));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          pattern_bytes(m));
}
BENCHMARK(BM_PatternHash);

void BM_CsrFromPattern(benchmark::State& state) {
  const Csr& m = hit_path_pattern();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<value_t> values(static_cast<std::size_t>(m.nnz()));
    state.ResumeTiming();
    const Csr c(m.rows(), m.cols(), m.row_offsets(), m.col_indices(),
                std::move(values));
    benchmark::DoNotOptimize(c.col_indices().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          pattern_bytes(m));
}
BENCHMARK(BM_CsrFromPattern);

void BM_RadixSortPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  std::vector<std::uint32_t> base_keys(n);
  for (auto& k : base_keys) k = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<double> base_vals(n, 1.0);
  for (auto _ : state) {
    auto keys = base_keys;
    auto vals = base_vals;
    radix_sort_pairs(keys, vals);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSortPairs)->Arg(1 << 12)->Arg(1 << 16);

void BM_DenseAccumulateRow(benchmark::State& state) {
  const Csr b = gen::banded(4000, 200, 32, 4);
  const index_t row = 2000;
  for (auto _ : state) {
    const auto result = dense_accumulate_row(
        b, b.row_cols(row), b.row_vals(row), 1500, 2500, 4096, /*numeric=*/true);
    benchmark::DoNotOptimize(result.cols.data());
  }
}
BENCHMARK(BM_DenseAccumulateRow);

void BM_GustavsonOracle(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const Csr a = gen::random_uniform(n, n, 8, 5);
  for (auto _ : state) {
    const Csr c = gustavson_spgemm(a, a);
    benchmark::DoNotOptimize(c.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count_products(a, a));
}
BENCHMARK(BM_GustavsonOracle)->Arg(1000)->Arg(4000);

void BM_SpeckSimulated(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const Csr a = gen::random_uniform(n, n, 8, 6);
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  for (auto _ : state) {
    const SpGemmResult result = speck.multiply(a, a);
    benchmark::DoNotOptimize(result.seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count_products(a, a));
}
BENCHMARK(BM_SpeckSimulated)->Arg(1000)->Arg(4000);

void BM_Transpose(benchmark::State& state) {
  const Csr a = gen::random_uniform(10000, 10000, 8, 7);
  for (auto _ : state) {
    const Csr t = transpose(a);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * a.nnz());
}
BENCHMARK(BM_Transpose);

void BM_ReverseCuthillMcKee(benchmark::State& state) {
  const Csr shuffled = permute_symmetric(gen::banded(5000, 20, 6, 8),
                                         random_permutation(5000, 9));
  for (auto _ : state) {
    const Permutation p = reverse_cuthill_mckee(shuffled);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_ReverseCuthillMcKee);

}  // namespace
}  // namespace speck

BENCHMARK_MAIN();
