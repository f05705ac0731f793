// Estimated-planning benchmark: plan() cost under exact vs estimated
// planning on the common corpus, emitted as key=value / point= lines for
// tools/bench_to_json.
//
// Estimated planning (docs/performance.md "Estimated planning") keeps the
// cheap exact row analysis but replaces the O(products) symbolic pass with a
// sampled per-row NNZ estimator;
// rows whose estimate underflows at numeric time re-run through the exact
// fallback, so the result is bit-identical either way. Both modes run paired
// per corpus entry (bench_common.h time_paired), one plan() per entry and
// side in each of `--iterations` rounds; `plan_speedup` is the median of the
// rounds' exact-over-estimated corpus wall times, and the *_wall_seconds
// keys sum all rounds. Three hard gates back the checked-in
// BENCH_planning.json (CI runs `bench_planning --quick`):
//
//   * plan() wall time under estimated planning must be at least
//     --min-speedup (default 2x) faster than exact planning at one thread,
//   * every estimated-mode C must be bit-identical to the exact pipeline's —
//     at every measured thread count, and again with fault injection
//     (estimator-scale) shrinking the estimates so the fallback machinery
//     carries the run,
//   * the honest-estimate fallback rate (underflowed rows / planned rows)
//     must stay under --max-fallback-rate (default 0.25); the rate is also
//     emitted as fallback_rate= for bench_check --info-metric.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "matrix/ops.h"
#include "speck/speck.h"

int main(int argc, char** argv) {
  using namespace speck;
  using bench::emit, bench::emit_count;
  bench::GateArgs args({1, 8}, {1});
  args.count_flag("--iterations", 5)
      .flag("--min-speedup", 2.0)
      .flag("--max-fallback-rate", 0.25);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t iterations = args.count("--iterations");
  const double min_speedup = args.get("--min-speedup");
  const double max_fallback_rate = args.get("--max-fallback-rate");

  const auto corpus = gen::common_corpus();
  std::printf("bench=planning\n");
  emit_count("corpus_matrices", corpus.size());
  emit_count("iterations", iterations);
  emit("min_speedup", min_speedup);
  emit("max_fallback_rate", max_fallback_rate);

  return bench::run_gate(args.threads, [&](int threads) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // every plan() must really build
    cfg.planning = PlanningMode::kExact;
    Speck exact(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    cfg.planning = PlanningMode::kEstimated;
    Speck estimated(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    // Warm both instances' kernel workspaces so the timed rounds compare
    // steady states rather than first-touch buffer growth.
    for (const auto& entry : corpus) {
      for (Speck* sp : {&exact, &estimated}) {
        bench::require_ok(sp->multiply(entry.a, entry.b), "warm-up multiply", entry.name);
      }
    }

    // Exact planning runs the full pipeline (analysis + symbolic + numeric)
    // behind every plan() call. Estimated planning runs the sampled
    // estimator and no symbolic pass; count the rows that underflowed their
    // estimate and re-ran the exact fallback.
    std::size_t fallback_rows = 0;
    std::size_t planned_rows = 0;
    const bench::PairedRatio ratio = bench::time_paired(
        corpus.size(), iterations,
        [&](std::size_t e) {
          bench::require_complete(exact.plan(corpus[e].a, corpus[e].b), "exact planning",
                                  corpus[e].name);
        },
        [&](std::size_t e) {
          bench::require_complete(estimated.plan(corpus[e].a, corpus[e].b),
                                  "estimated planning", corpus[e].name);
          fallback_rows += static_cast<std::size_t>(
              estimated.last_diagnostics().numeric.estimate_underflow_rows);
          planned_rows += static_cast<std::size_t>(corpus[e].a.rows());
        });
    const double fallback_rate =
        planned_rows == 0
            ? 0.0
            : static_cast<double>(fallback_rows) / static_cast<double>(planned_rows);

    // Bit-identity: the estimated pipeline must reproduce the exact C
    // everywhere — first with honest estimates, then with fault injection
    // scaling the sampled estimates down so the fallback path carries most
    // rows (the plan self-corrects; only wall time may change).
    bool failed = false;
    std::size_t forced_fallback_rows = 0;
    SpeckConfig forced_cfg = cfg;
    forced_cfg.faults.estimator_scale = 0.25;
    Speck forced(sim::DeviceSpec::titan_v(), sim::CostModel{}, forced_cfg);
    for (const auto& entry : corpus) {
      const SpGemmResult want = exact.multiply(entry.a, entry.b);
      const SpGemmResult honest = estimated.multiply(entry.a, entry.b);
      const SpGemmResult fallback = forced.multiply(entry.a, entry.b);
      bench::require_ok(want, "exact multiply", entry.name);
      bench::require_ok(honest, "estimated multiply", entry.name);
      bench::require_ok(fallback, "forced-fallback multiply", entry.name);
      forced_fallback_rows += static_cast<std::size_t>(
          forced.last_diagnostics().numeric.estimate_underflow_rows);
      if (compare(honest.c, want.c, 0.0).has_value()) {
        std::fprintf(stderr, "FAIL: estimated C for %s is not bit-identical\n",
                     entry.name.c_str());
        failed = true;
      }
      if (compare(fallback.c, want.c, 0.0).has_value()) {
        std::fprintf(stderr, "FAIL: forced-fallback C for %s is not bit-identical\n",
                     entry.name.c_str());
        failed = true;
      }
    }

    emit("exact_plan_wall_seconds", ratio.a_seconds);
    emit("estimated_plan_wall_seconds", ratio.b_seconds);
    bench::emit_ratio("plan_speedup", ratio);
    emit("fallback_rate", fallback_rate);
    emit_count("fallback_rows", fallback_rows);
    emit_count("planned_rows", planned_rows);
    emit_count("forced_fallback_rows", forced_fallback_rows);

    // Speedup and fallback gates bind at one worker (deterministic steady
    // state); multi-worker points are reported for the trajectory.
    // Bit-identity gates everywhere.
    if (threads == 1) {
      failed = !bench::floor_gate("plan speedup", ratio.median, min_speedup) || failed;
      if (fallback_rate > max_fallback_rate) {
        std::fprintf(stderr, "FAIL: fallback rate %.4f > %.4f\n", fallback_rate,
                     max_fallback_rate);
        failed = true;
      }
    }
    if (forced_fallback_rows == 0) {
      std::fprintf(stderr,
                   "FAIL: estimator-scale=0.25 forced no fallback rows — the "
                   "fault path is not exercising the fallback machinery\n");
      failed = true;
    }
    return failed;
  });
}
