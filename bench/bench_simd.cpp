// SIMD backend benchmark: the full pipeline on the common corpus with the
// scalar reference backend vs the best vector backend the CPU offers,
// emitted as key=value / point= lines for tools/bench_to_json.
//
// Both backends run paired per corpus entry (bench_common.h time_paired, 4
// rounds of `--iterations` multiplies per entry and side); `speedup` is the
// median of the rounds' scalar-over-vector corpus wall times, and the
// *_wall_seconds keys are per round. Two hard gates back the checked-in
// BENCH_simd.json (CI runs `bench_simd --quick`):
//
//   * the vector backend must reach --min-speedup (default 1.25x) corpus
//     wall-time speedup over scalar at one thread,
//   * every vector-backend C must be bit-identical to the scalar one
//     (CSR bytes and simulated seconds — the backend may only change host
//     wall time).
//
// On a machine whose best backend *is* scalar (no SSE2/NEON) the
// speedup gate is skipped: there is nothing to compare.
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "common/simd.h"
#include "gen/corpus.h"
#include "speck/speck.h"

int main(int argc, char** argv) {
  using namespace speck;
  using bench::emit, bench::emit_count;
  bench::GateArgs args({1, 8}, {1});
  args.count_flag("--iterations", 3).flag("--min-speedup", 1.25);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t iterations = args.count("--iterations");
  const double min_speedup = args.get("--min-speedup");
  constexpr std::size_t kRounds = 4;

  const SimdBackend vector_backend = simd::detected_backend();
  const auto corpus = gen::common_corpus();
  const std::size_t n = corpus.size();
  std::printf("bench=simd\n");
  emit_count("corpus_matrices", n);
  emit_count("iterations", iterations);
  emit("min_speedup", min_speedup);
  std::printf("vector_backend=%s\n", simd::backend_name(vector_backend));
  if (vector_backend == SimdBackend::kScalar) {
    std::printf("gate=skipped (no vector backend on this CPU)\n");
    return 0;
  }

  return bench::run_gate(args.threads, [&](int threads) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // every multiply runs the full pipeline
    cfg.simd_backend = SimdBackend::kScalar;
    Speck scalar_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    cfg.simd_backend = vector_backend;
    Speck vector_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    // One untimed corpus pass per instance warms the kernel workspaces, so
    // the timed rounds compare steady states rather than first-touch growth.
    for (const auto& entry : corpus) {
      for (Speck* sp : {&scalar_sp, &vector_sp}) {
        bench::require_ok(sp->multiply(entry.a, entry.b), "warm-up multiply", entry.name);
      }
    }

    std::vector<Csr> scalar_c(n), vector_c(n);
    std::vector<double> scalar_sim(n), vector_sim(n);
    const auto run = [&](Speck& sp, std::vector<Csr>& cs, std::vector<double>& sims,
                         std::size_t e) {
      for (std::size_t iter = 0; iter < iterations; ++iter) {
        SpGemmResult r = sp.multiply(corpus[e].a, corpus[e].b);
        bench::require_ok(r, "multiply", corpus[e].name);
        sims[e] = r.seconds;
        cs[e] = std::move(r.c);
      }
    };
    const bench::PairedRatio ratio = bench::time_paired(
        n, kRounds, [&](std::size_t e) { run(scalar_sp, scalar_c, scalar_sim, e); },
        [&](std::size_t e) { run(vector_sp, vector_c, vector_sim, e); });

    bool bit_identical = bench::same_bits(vector_c, scalar_c, corpus, "vector-backend C");
    if (scalar_sim != vector_sim) {
      std::fprintf(stderr, "FAIL: simulated seconds differ between backends\n");
      bit_identical = false;
    }

    emit("scalar_wall_seconds", ratio.a_seconds / kRounds);
    emit("vector_wall_seconds", ratio.b_seconds / kRounds);
    bench::emit_ratio("speedup", ratio);
    emit("sim_seconds", std::accumulate(scalar_sim.begin(), scalar_sim.end(), 0.0));
    emit_count("bit_identical", bit_identical ? 1 : 0);

    // The speedup gate runs at one worker; multi-worker points are reported
    // for the trajectory (thread-pool overhead dilutes per-loop gains).
    const bool slow =
        threads == 1 && !bench::floor_gate("simd speedup", ratio.median, min_speedup);
    return slow || !bit_identical;
  });
}
