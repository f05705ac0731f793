// Structure-reuse benchmark: repeated multiplies with a fixed sparsity
// pattern, comparing the full pipeline (replanning every iteration) against
// Speck::plan + Speck::multiply_with_plan (plan once, replay values-only),
// emitted as key=value / point= lines for tools/bench_to_json.
//
// The loop mirrors the iterative-application pattern the plan cache targets
// (AMG cycles, Newton steps): `--iterations` multiplies per corpus entry,
// values fixed, pattern fixed. Both sides run paired per corpus entry
// (bench_common.h time_paired) in one round: A B for one entry, B A for the
// next. `speedup` is full-over-reuse corpus wall time (one round, so no
// quartile keys). Three hard gates back the checked-in
// BENCH_reuse.json (CI runs `bench_reuse --quick`):
//
//   * end-to-end speedup of the reuse path (planning included) must reach
//     --min-speedup (default 3x) at one thread,
//   * every replayed C must be bit-identical to the full pipeline's,
//   * the replay hot path must perform zero heap allocations (live-counted
//     via the counting operator new, counting_new.cpp).
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "speck/speck.h"

int main(int argc, char** argv) {
  using namespace speck;
  using bench::emit, bench::emit_count;
  bench::GateArgs args({1, 8}, {1});
  args.count_flag("--iterations", 10).flag("--min-speedup", 3.0);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t iterations = args.count("--iterations");
  const double min_speedup = args.get("--min-speedup");

  const auto corpus = gen::common_corpus();
  const std::size_t n = corpus.size();
  std::printf("bench=reuse\n");
  emit_count("corpus_matrices", n);
  emit_count("iterations", iterations);
  emit("min_speedup", min_speedup);

  return bench::run_gate(args.threads, [&](int threads) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // both paths are explicit; no transparent cache
    Speck full(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    Speck reuse(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    // Warm both instances' kernel workspaces with one full corpus pass, so
    // the timed loops compare steady states rather than first-touch growth.
    for (const auto& entry : corpus) {
      for (Speck* sp : {&full, &reuse}) {
        bench::require_ok(sp->multiply(entry.a, entry.b), "warm-up multiply", entry.name);
      }
    }

    std::vector<Csr> full_c(n), reuse_c(n);
    std::vector<double> full_sim(n), reuse_sim(n);
    std::vector<std::size_t> plan_bytes(n);
    double plan_wall = 0.0;
    std::size_t replay_allocs = 0;
    const bench::PairedRatio ratio = bench::time_paired(
        n, 1,
        [&](std::size_t e) {  // replan every iteration: the full pipeline
          for (std::size_t iter = 0; iter < iterations; ++iter) {
            SpGemmResult r = full.multiply(corpus[e].a, corpus[e].b);
            bench::require_ok(r, "full multiply", corpus[e].name);
            full_sim[e] = r.seconds;
            full_c[e] = std::move(r.c);
          }
        },
        [&](std::size_t e) {  // plan once (timed: end to end), then replay
          const double t_plan = bench::steady_seconds();
          const SpeckPlan plan = reuse.plan(corpus[e].a, corpus[e].b);
          plan_wall += bench::steady_seconds() - t_plan;
          bench::require_complete(plan, "planning", corpus[e].name);
          plan_bytes[e] = plan.byte_size();
          for (std::size_t iter = 0; iter < iterations; ++iter) {
            SpGemmResult r = reuse.multiply_with_plan(plan, corpus[e].a, corpus[e].b);
            bench::require_ok(r, "replay", corpus[e].name);
            const SpeckDiagnostics& diag = reuse.last_diagnostics();
            if (diag.plan_fallback) {
              throw std::runtime_error("replay of " + corpus[e].name +
                                       " fell back: " + diag.plan_fallback_reason);
            }
            replay_allocs += diag.numeric.hot_path_allocs;
            reuse_sim[e] = r.seconds;
            reuse_c[e] = std::move(r.c);
          }
        });

    bool failed = !bench::same_bits(reuse_c, full_c, corpus, "replayed C");
    const double full_sim_total = std::accumulate(full_sim.begin(), full_sim.end(), 0.0);
    const double reuse_sim_total =
        std::accumulate(reuse_sim.begin(), reuse_sim.end(), 0.0);
    emit("full_wall_seconds", ratio.a_seconds);
    emit("plan_wall_seconds", plan_wall);
    emit("reuse_wall_seconds", ratio.b_seconds);
    bench::emit_ratio("speedup", ratio);
    emit("full_sim_seconds", full_sim_total);
    emit("reuse_sim_seconds", reuse_sim_total);
    emit("sim_speedup", full_sim_total / reuse_sim_total);
    emit_count("plan_bytes",
               std::accumulate(plan_bytes.begin(), plan_bytes.end(), std::size_t{0}));
    emit_count("replay_hot_allocs", replay_allocs);

    // Gates run at one worker (deterministic steady state); multi-worker
    // points are reported for the trajectory.
    if (threads == 1) {
      failed = !bench::floor_gate("reuse speedup", ratio.median, min_speedup) || failed;
      failed = !bench::zero_alloc_gate(replay_allocs, "replay hot path") || failed;
    }
    return failed;
  });
}
