// NUMA scale-out trajectory: the two-level partitioned executor (partition-
// local worker teams + cross-partition work stealing) swept over 1 -> 4
// partitions on the common corpus and on a skewed power-law corpus, emitted
// as key=value lines for tools/bench_to_json.
//
// Gates (docs/performance.md "NUMA scale-out"):
//  * bit-identity, always: CSR bytes, simulated seconds and every PassStats
//    counter are identical at every (partitions, threads, steal)
//    combination — the partitioned executor commits in plan order and chunk
//    boundaries depend only on (n, chunk).
//  * zero-allocation, always: steady-state block bodies allocate nothing
//    with partition-local workspace pools (counting operator new,
//    counting_new.cpp).
//  * parallel efficiency and the power-law stealing win, >= 8 hardware
//    cores only: on fewer cores the partition teams collapse onto the same
//    physical threads and the comparison measures oversubscription noise.
//    CI additionally gates the checked-in BENCH_scaleout.json via
//    tools/bench_check.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "speck/speck.h"

namespace {

using namespace speck;

using bench::emit, bench::emit_count;

/// The stealing stress corpus: heavy head rows concentrate the product
/// volume in the first partitions, so balanced-by-weight boundaries leave
/// light teams idle unless they steal.
std::vector<gen::CorpusEntry> power_law_corpus() {
  std::vector<gen::CorpusEntry> out;
  const struct {
    const char* name;
    index_t n;
    index_t avg;
    double alpha;
    index_t max_nnz;
    std::uint64_t seed;
  } shapes[] = {
      {"pl-skew22", 1400, 10, 2.2, 350, 9100},
      {"pl-skew19", 1200, 12, 1.9, 300, 9200},
      {"pl-skew25", 1600, 8, 2.5, 400, 9300},
  };
  for (const auto& s : shapes) {
    gen::CorpusEntry e;
    e.name = s.name;
    e.a = gen::power_law(s.n, s.n, s.avg, s.alpha, s.max_nnz, s.seed);
    e.b = e.a;
    out.push_back(std::move(e));
  }
  return out;
}

SpeckConfig make_config(int threads, int partitions, bool steal) {
  SpeckConfig cfg;
  cfg.plan_cache = false;  // measure the full pipeline every pass
  cfg.host_threads = threads;
  cfg.partitions = partitions;
  cfg.partition_steal = steal;
  return cfg;
}

struct EntryResult {
  Csr c;
  double sim_seconds = 0.0;
  SpeckDiagnostics diag;
};

struct CorpusRun {
  std::vector<EntryResult> entries;
  double wall_seconds = 0.0;  ///< per timed pass (averaged over reps)
  std::size_t steals = 0;     ///< summed over timed passes
  double imbalance = 0.0;     ///< worst over timed passes
  std::size_t hot_allocs = 0; ///< block-body allocations in timed passes
};

/// One warm-up pass, then `reps` timed passes over the corpus.
CorpusRun run_corpus(const SpeckConfig& cfg,
                     const std::vector<gen::CorpusEntry>& corpus,
                     std::size_t reps) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  CorpusRun run;
  for (const auto& entry : corpus) {  // warm-up: workspaces fill here
    bench::require_ok(sp.multiply(entry.a, entry.b), "multiply", entry.name);
  }
  const double t0 = bench::steady_seconds();
  for (std::size_t p = 0; p < reps; ++p) {
    for (const auto& entry : corpus) {
      SpGemmResult r = sp.multiply(entry.a, entry.b);
      bench::require_ok(r, "multiply", entry.name);
      const SpeckDiagnostics& diag = sp.last_diagnostics();
      run.steals += diag.partition.steal_count();
      run.imbalance = std::max(run.imbalance, diag.partition.imbalance_ratio());
      run.hot_allocs +=
          diag.symbolic.hot_path_allocs + diag.numeric.hot_path_allocs;
      if (p == 0) {
        run.entries.push_back(
            EntryResult{std::move(r.c), r.seconds, diag});
      }
    }
  }
  run.wall_seconds = (bench::steady_seconds() - t0) / static_cast<double>(reps);
  return run;
}

bool stats_equal(const PassStats& a, const PassStats& b) {
  return a.seconds == b.seconds && a.direct_rows == b.direct_rows &&
         a.dense_rows == b.dense_rows && a.hash_rows == b.hash_rows &&
         a.global_hash_blocks == b.global_hash_blocks &&
         a.global_pool_bytes == b.global_pool_bytes &&
         a.hash_probes == b.hash_probes &&
         a.moved_entries == b.moved_entries &&
         a.global_inserts == b.global_inserts;
}

/// Bitwise CSR + counter identity of `got` against the serial flat
/// baseline. Returns false (and reports) on any divergence.
bool check_identity(const std::vector<gen::CorpusEntry>& corpus,
                    const CorpusRun& baseline, const CorpusRun& got,
                    const std::string& what) {
  bool ok = true;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const EntryResult& w = baseline.entries[i];
    const EntryResult& g = got.entries[i];
    const auto diff = compare(g.c, w.c, 0.0);  // bitwise
    if (diff.has_value()) {
      std::fprintf(stderr, "FAIL: %s: %s: %s\n", what.c_str(),
                   corpus[i].name.c_str(), diff->description.c_str());
      ok = false;
    }
    if (g.sim_seconds != w.sim_seconds ||
        !stats_equal(g.diag.symbolic, w.diag.symbolic) ||
        !stats_equal(g.diag.numeric, w.diag.numeric)) {
      std::fprintf(stderr, "FAIL: %s: %s: pass counters diverged\n",
                   what.c_str(), corpus[i].name.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::GateArgs args({8}, {8});
  args.count_flag("--reps", 3, 1).flag("--min-efficiency", 0.70);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t reps = args.count("--reps");
  const int threads = args.threads.front();
  const double min_efficiency = args.get("--min-efficiency");

  const unsigned cores = std::thread::hardware_concurrency();
  const bool perf_gates_bind = cores >= 8;
  auto common = gen::common_corpus();
  if (args.quick) {
    // Keep the smoke run under the ctest timeout: the three largest
    // common-corpus entries dominate the pass and add nothing to the gate.
    if (common.size() > 6) common.resize(6);
  }
  const auto powerlaw = power_law_corpus();

  std::printf("bench=scaleout\n");
  emit_count("cores", cores);
  emit_count("threads", static_cast<std::size_t>(threads));
  emit_count("reps", reps);
  emit_count("perf_gates_bind", perf_gates_bind ? 1 : 0);

  return bench::run_gate([&] {
    bool gate_failed = false;

    // Serial flat baselines: the bit-identity reference and the numerator of
    // the parallel-efficiency metric.
    const CorpusRun common_serial = run_corpus(make_config(1, 1, true), common, reps);
    const CorpusRun pl_serial = run_corpus(make_config(1, 1, true), powerlaw, reps);
    emit("common_serial_wall_seconds", common_serial.wall_seconds);
    emit("powerlaw_serial_wall_seconds", pl_serial.wall_seconds);

    // Bit-identity sweep: always on, every combination, both corpora.
    for (const int partitions : {1, 2, 4}) {
      for (const bool steal : {false, true}) {
        for (const int t : {1, threads}) {
          const std::string what = "partitions=" + std::to_string(partitions) +
                                   " threads=" + std::to_string(t) +
                                   (steal ? " steal" : " no-steal");
          const CorpusRun c = run_corpus(make_config(t, partitions, steal), common, 1);
          if (!check_identity(common, common_serial, c, "common " + what)) {
            gate_failed = true;
          }
          const CorpusRun p = run_corpus(make_config(t, partitions, steal), powerlaw, 1);
          if (!check_identity(powerlaw, pl_serial, p, "powerlaw " + what)) {
            gate_failed = true;
          }
        }
      }
    }

    // Zero-allocation gate: one worker (deterministic warm-up coverage),
    // partitioned workspace pools.
    const CorpusRun steady =
        run_corpus(make_config(1, 4, true), common, std::max<std::size_t>(reps, 2));
    emit_count("steady_state_allocs_total_p4", steady.hot_allocs);
    if (!bench::zero_alloc_gate(steady.hot_allocs,
                                "block bodies with partition-local workspace pools")) {
      gate_failed = true;
    }

    // Scale-out sweep: wall-clock, steal and imbalance telemetry per
    // (corpus, partitions) at the swept thread count.
    const auto sweep_point = [&](const std::string& name,
                                 const std::vector<gen::CorpusEntry>& corpus,
                                 const CorpusRun& serial, int partitions) {
      const CorpusRun run =
          run_corpus(make_config(threads, partitions, true), corpus, reps);
      bench::emit_point(name + "_p" + std::to_string(partitions));
      emit_count("partitions", static_cast<std::size_t>(partitions));
      emit("wall_seconds", run.wall_seconds);
      emit_count("steals", run.steals);
      emit("worst_imbalance", run.imbalance);
      emit("speedup_vs_serial", serial.wall_seconds / run.wall_seconds);
      bench::emit_point("");
      return run.wall_seconds;
    };
    double common_p4_wall = 0.0;
    double pl_p1_wall = 0.0;
    double pl_p4_wall = 0.0;
    for (const int partitions : {1, 2, 4}) {
      const double c = sweep_point("common", common, common_serial, partitions);
      const double p = sweep_point("powerlaw", powerlaw, pl_serial, partitions);
      if (partitions == 1) pl_p1_wall = p;
      if (partitions == 4) common_p4_wall = c;
      if (partitions == 4) pl_p4_wall = p;
    }

    // Headline metrics: parallel efficiency of the 4-partition executor on
    // the common corpus (serial flat wall / (threads x partitioned wall)) and
    // the stealing win on the power-law corpus at the same thread count.
    const double efficiency =
        common_serial.wall_seconds / (static_cast<double>(threads) * common_p4_wall);
    emit("parallel_efficiency_p4", efficiency);
    emit("powerlaw_p4_speedup_vs_p1", pl_p1_wall / pl_p4_wall);

    if (perf_gates_bind) {
      if (efficiency < min_efficiency) {
        std::fprintf(stderr,
                     "FAIL: parallel efficiency %.3f below the %.2f floor at 4 "
                     "partitions\n",
                     efficiency, min_efficiency);
        gate_failed = true;
      }
      if (pl_p4_wall >= pl_p1_wall) {
        std::fprintf(stderr,
                     "FAIL: 4-partition power-law wall %.4fs not better than "
                     "1-partition %.4fs (stealing win)\n",
                     pl_p4_wall, pl_p1_wall);
        gate_failed = true;
      }
    }
    return gate_failed;
  });
}
