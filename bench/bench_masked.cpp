// Masked-SpGEMM benchmark: triangle counting C = (L*L) .* L over a corpus
// of scale-free / web-crawl graphs, comparing the output-masked fast path
// (Speck::multiply_masked — no symbolic pass, accumulators sized off
// min(products, mask row nnz)) against the naive pipeline the mask
// replaces: full multiply, then filter the product down to the mask
// positions. Emitted as key=value / point= lines for tools/bench_to_json.
// Both paths run paired per graph (bench_common.h time_paired), one multiply
// per graph and side in each of `--iterations` rounds; `speedup` is the
// median of the rounds' filtered-over-masked corpus wall times, and the
// *_wall_seconds keys sum all rounds.
//
// Four hard gates back the checked-in BENCH_masked.json (CI runs
// `bench_masked --quick`):
//
//   * the masked path must beat full-multiply-then-filter by --min-speedup
//     (default 2x) in corpus wall time at one thread — the win is
//     algorithmic (symbolic + sort skipped, smaller accumulators), so it
//     must hold on any core count,
//   * every masked C must be bit-identical to the masked-Gustavson oracle,
//     and every triangle count must agree across masked / filtered / oracle,
//   * masked plan replays must be bit-identical and perform zero heap
//     allocations in their hot path (counting operator new,
//     counting_new.cpp),
//   * the transparent plan cache must replay a repeated masked product
//     (hits >= 1 on the third call).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/ops.h"
#include "ref/masked.h"
#include "speck/plan_cache.h"
#include "speck/speck.h"

namespace {

using namespace speck;

/// Symmetrizes into an undirected pattern (no self-loops, values 1).
Csr undirected_pattern(const Csr& directed) {
  Coo sym(directed.rows(), directed.cols());
  for (index_t r = 0; r < directed.rows(); ++r) {
    for (const index_t c : directed.row_cols(r)) {
      if (c == r) continue;
      sym.add(r, c, 1.0);
      sym.add(c, r, 1.0);
    }
  }
  Csr result = sym.to_csr();
  for (auto& v : result.values_mutable()) v = 1.0;
  return result;
}

/// Strictly-lower-triangular part (column < row), values clamped to 1.
Csr lower_triangular(const Csr& a) {
  Coo lower(a.rows(), a.cols());
  for (index_t r = 0; r < a.rows(); ++r) {
    for (const index_t c : a.row_cols(r)) {
      if (c < r) lower.add(r, c, 1.0);
    }
  }
  return lower.to_csr();
}

/// Post-hoc masking — what the baseline pipeline pays after the full
/// multiply: intersect each product row with the mask row, appending the
/// surviving values to `out` (reserved once by the caller) and returning
/// their sum. Two-pointer merge, no per-row allocation.
double filter_into(const Csr& c, const Csr& mask, std::vector<value_t>& out) {
  out.clear();
  double sum = 0.0;
  for (index_t r = 0; r < c.rows(); ++r) {
    const auto cols = c.row_cols(r);
    const auto vals = c.row_vals(r);
    const auto mask_cols = mask.row_cols(r);
    std::size_t j = 0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      while (j < mask_cols.size() && mask_cols[j] < cols[i]) ++j;
      if (j < mask_cols.size() && mask_cols[j] == cols[i]) {
        out.push_back(vals[i]);
        sum += vals[i];
      }
    }
  }
  return sum;
}

double sum_values(const Csr& c) {
  double sum = 0.0;
  for (const value_t v : c.values()) sum += v;
  return sum;
}

struct TriangleEntry {
  std::string name;
  Csr lower;  ///< strictly-lower adjacency pattern; mask == operand
};

/// The triangle corpus: the scale-free / web-crawl graph families triangle
/// counting actually runs on (skewed degree distributions are where the
/// mask pays — hub rows have huge unmasked products and tiny mask rows).
std::vector<TriangleEntry> make_triangle_corpus() {
  std::vector<TriangleEntry> out;
  const char* const graph_like[] = {"webbase", "mario002", "email-Enron",
                                    "cage13", "144"};
  for (auto& entry : gen::common_corpus()) {
    if (!entry.square) continue;
    for (const char* name : graph_like) {
      if (entry.name == name) {
        out.push_back({entry.name,
                       lower_triangular(undirected_pattern(entry.a))});
      }
    }
  }
  out.push_back({"rmat-12", lower_triangular(undirected_pattern(
                                gen::rmat(12, 8, 0.45, 0.22, 0.22, 7)))});
  out.push_back({"rmat-11", lower_triangular(undirected_pattern(
                                gen::rmat(11, 16, 0.45, 0.22, 0.22, 21)))});
  out.push_back(
      {"powerlaw-8k", lower_triangular(undirected_pattern(
                          gen::power_law(8000, 8000, 12, 2.1, 400, 33)))});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::emit, bench::emit_count;
  bench::GateArgs args({1, 8}, {1});
  args.count_flag("--iterations", 3, 2).flag("--min-speedup", 2.0);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t iterations = std::max<std::size_t>(1, args.count("--iterations"));
  const double min_speedup = args.get("--min-speedup");

  const std::vector<TriangleEntry> corpus = make_triangle_corpus();
  const std::size_t n = corpus.size();

  // Oracle counts, computed once: every path must land on these exactly.
  std::vector<Csr> oracle(n);
  double oracle_triangles = 0.0;
  for (std::size_t e = 0; e < n; ++e) {
    oracle[e] = masked_spgemm(corpus[e].lower, corpus[e].lower, corpus[e].lower);
    oracle_triangles += sum_values(oracle[e]);
  }

  std::printf("bench=masked\n");
  emit_count("corpus_graphs", n);
  emit_count("iterations", iterations);
  emit("min_speedup", min_speedup);
  emit("triangles", oracle_triangles);

  return bench::run_gate(args.threads, [&](int threads) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // both paths replan; the cache gets its own gate
    Speck masked_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    Speck full_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    // Warm both instances' kernel workspaces with one corpus pass so the
    // timed rounds compare steady states rather than first-touch growth.
    std::size_t filter_reserve = 0;
    for (const auto& entry : corpus) {
      const Csr& l = entry.lower;
      bench::require_ok(masked_speck.multiply_masked(l, l, l), "warm-up multiply",
                        entry.name);
      bench::require_ok(full_speck.multiply(l, l), "warm-up multiply", entry.name);
      filter_reserve = std::max(filter_reserve, static_cast<std::size_t>(l.nnz()));
    }

    // Side A: full product, then filter it down to the mask positions (the
    // deliverable a mask-less pipeline produces). Side B: the same
    // deliverable straight from the masked pipeline.
    std::vector<double> full_triangles(n), masked_triangles(n);
    std::vector<Csr> masked_c(n);
    std::vector<value_t> filtered;
    filtered.reserve(filter_reserve);
    const bench::PairedRatio ratio = bench::time_paired(
        n, iterations,
        [&](std::size_t e) {
          SpGemmResult r = full_speck.multiply(corpus[e].lower, corpus[e].lower);
          bench::require_ok(r, "full multiply", corpus[e].name);
          full_triangles[e] = filter_into(r.c, corpus[e].lower, filtered);
        },
        [&](std::size_t e) {
          SpGemmResult r = masked_speck.multiply_masked(corpus[e].lower, corpus[e].lower,
                                                        corpus[e].lower);
          bench::require_ok(r, "masked multiply", corpus[e].name);
          masked_triangles[e] = sum_values(r.c);
          masked_c[e] = std::move(r.c);
        });
    bool failed = !bench::same_bits(masked_c, oracle, corpus, "masked C (vs the oracle)");

    // Replay: build each masked plan once, then run values-only replays.
    // The hot path must not allocate and every replay must stay bitwise.
    std::size_t replay_allocs = 0;
    Speck replay_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    std::vector<SpeckPlan> plans;
    for (const auto& entry : corpus) {
      plans.push_back(replay_speck.plan_masked(entry.lower, entry.lower, entry.lower));
      bench::require_complete(plans.back(), "masked planning", entry.name);
    }
    const double replay_wall = bench::wall_seconds([&] {
      for (std::size_t iter = 0; iter < iterations; ++iter) {
        for (std::size_t e = 0; e < n; ++e) {
          // multiply_with_plan checks the plan against the configured mask.
          replay_speck.config().mask = std::make_shared<const Csr>(corpus[e].lower);
          SpGemmResult r =
              replay_speck.multiply_with_plan(plans[e], corpus[e].lower, corpus[e].lower);
          bench::require_ok(r, "masked replay", corpus[e].name);
          const SpeckDiagnostics& diag = replay_speck.last_diagnostics();
          if (diag.plan_fallback) {
            throw std::runtime_error("masked replay of " + corpus[e].name +
                                     " fell back: " + diag.plan_fallback_reason);
          }
          replay_allocs += diag.numeric.hot_path_allocs;
          if (compare(r.c, oracle[e], 0.0).has_value()) {
            std::fprintf(stderr, "FAIL: masked replay of %s is not bit-identical\n",
                         corpus[e].name.c_str());
            failed = true;
          }
        }
      }
    });

    // Transparent cache: the third identical masked product must replay.
    SpeckConfig cached_cfg = cfg;
    cached_cfg.plan_cache = true;
    Speck cached(sim::DeviceSpec::titan_v(), sim::CostModel{}, cached_cfg);
    const Csr& first = corpus.front().lower;
    for (int i = 0; i < 3; ++i) {
      SpGemmResult r = cached.multiply_masked(first, first, first);
      if (!r.ok() || compare(r.c, oracle.front(), 0.0).has_value()) {
        std::fprintf(stderr, "FAIL: cached masked multiply diverged\n");
        failed = true;
        break;
      }
    }
    const std::size_t cache_hits = cached.plan_cache().stats().hits;

    const double full_total =
        std::accumulate(full_triangles.begin(), full_triangles.end(), 0.0);
    const double masked_total =
        std::accumulate(masked_triangles.begin(), masked_triangles.end(), 0.0);
    emit("full_filter_wall_seconds", ratio.a_seconds);
    emit("masked_wall_seconds", ratio.b_seconds);
    emit("replay_wall_seconds", replay_wall);
    bench::emit_ratio("speedup", ratio);
    emit("masked_triangles", masked_total);
    emit("full_triangles", full_total);
    emit_count("replay_hot_allocs", replay_allocs);
    emit_count("cache_hits", cache_hits);

    if (masked_total != oracle_triangles || full_total != oracle_triangles) {
      std::fprintf(stderr,
                   "FAIL: triangle counts disagree (masked %.0f, filtered %.0f, "
                   "oracle %.0f)\n",
                   masked_total, full_total, oracle_triangles);
      failed = true;
    }
    // The speedup gate runs at one worker: the masked win is algorithmic,
    // so a single deterministic thread is its cleanest measurement.
    if (threads == 1) {
      failed = !bench::floor_gate("masked speedup", ratio.median, min_speedup) || failed;
      failed = !bench::zero_alloc_gate(replay_allocs, "masked replay hot path") || failed;
    }
    if (cache_hits == 0) {
      std::fprintf(stderr, "FAIL: repeated masked product never hit the plan cache\n");
      failed = true;
    }
    return failed;
  });
}
