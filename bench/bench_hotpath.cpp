// Hot-path perf-trajectory benchmark: end-to-end common-corpus wall-clock,
// ns per simulated block, and heap allocations per block (steady state and
// warm-up), emitted as key=value lines for tools/bench_to_json.
//
// This binary links the counting operator new (counting_new.cpp) so the
// passes' per-block allocation accounting (PassStats::hot_path_allocs, see
// common/alloc_counter.h) is live. The steady-state gate is hard: after one
// warm-up pass over the corpus, every further multiply must execute its
// block bodies without a single heap allocation, or the benchmark exits
// nonzero. CI runs `bench_hotpath --quick` as a regression gate.
//
// Results are bit-identical at every thread count; only wall-clock varies.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "speck/speck.h"

namespace {

using namespace speck;

struct RunStats {
  double wall_seconds = 0.0;   ///< per full corpus pass (averaged)
  double sim_seconds = 0.0;    ///< summed simulated seconds, one pass
  std::size_t blocks = 0;      ///< simulated blocks, one pass
  std::size_t hot_allocs = 0;  ///< block-body allocations over all passes
};

/// Runs `passes` full corpus passes on `sp`, accumulating wall-clock,
/// per-block allocation counts and block totals.
RunStats run_corpus(Speck& sp, const std::vector<gen::CorpusEntry>& corpus,
                    std::size_t passes) {
  RunStats stats;
  const double wall = bench::wall_seconds([&] {
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& entry : corpus) {
        const SpGemmResult result = sp.multiply(entry.a, entry.b);
        bench::require_ok(result, "multiply", entry.name);
        const SpeckDiagnostics& diag = sp.last_diagnostics();
        stats.hot_allocs += diag.symbolic.hot_path_allocs + diag.numeric.hot_path_allocs;
        if (p == 0) {
          stats.sim_seconds += result.seconds;
          stats.blocks += static_cast<std::size_t>(diag.symbolic_blocks) +
                          static_cast<std::size_t>(diag.numeric_blocks);
        }
      }
    }
  });
  stats.wall_seconds = wall / static_cast<double>(passes);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::emit, bench::emit_count;
  // --baseline-seconds: pre-change serial corpus wall time recorded on the
  // reference machine (docs/performance.md); 0 disables the speedup line.
  bench::GateArgs args({1, 8}, {1});
  args.count_flag("--reps", 5, 1).flag("--baseline-seconds", 1.7970);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t reps = args.count("--reps");
  const double baseline_seconds = args.get("--baseline-seconds");

  const auto corpus = gen::common_corpus();
  std::printf("bench=hotpath\n");
  emit_count("corpus_matrices", corpus.size());
  emit_count("reps", reps);
  emit("baseline_wall_seconds", baseline_seconds);

  return bench::run_gate(args.threads, [&](int threads) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    // Cold pass: workspaces fill up — allocations are expected here and
    // recorded as the warm-up cost. With multiple workers the block-to-worker
    // assignment is scheduling-dependent, so a worker may first meet the
    // largest block only in a later pass; growth is monotone, so warming
    // until one full pass is allocation-free converges in a few passes.
    const RunStats warmup = run_corpus(sp, corpus, 1);
    emit_count("blocks_per_pass", warmup.blocks);
    emit("warmup_allocs_per_block",
         static_cast<double>(warmup.hot_allocs) / static_cast<double>(warmup.blocks));
    if (threads > 1) {
      for (int extra = 0; extra < 10; ++extra) {
        if (run_corpus(sp, corpus, 1).hot_allocs == 0) break;
      }
    }

    // Steady state: same instance, warm workspaces.
    const RunStats steady = run_corpus(sp, corpus, reps);
    emit("corpus_wall_seconds", steady.wall_seconds);
    emit("sim_seconds", steady.sim_seconds);
    emit("ns_per_block", steady.wall_seconds * 1e9 / static_cast<double>(steady.blocks));
    emit("steady_state_allocs_per_block",
         static_cast<double>(steady.hot_allocs) /
             static_cast<double>(steady.blocks * reps));
    emit_count("steady_state_allocs_total", steady.hot_allocs);
    if (threads == 1 && baseline_seconds > 0.0) {
      emit("speedup_vs_baseline", baseline_seconds / steady.wall_seconds);
    }
    // The hard gate runs at one worker, where warm-up deterministically
    // covers every (workspace, block) pairing yet all code paths execute;
    // multi-worker runs are reported for the trajectory.
    return threads == 1 &&
           !bench::zero_alloc_gate(steady.hot_allocs, "steady-state block bodies");
  });
}
