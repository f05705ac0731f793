// tricount: cold Speck::multiply_masked(L, L, L) with exact planning on
// seeded R-MAT and power-law graphs, L the strictly-lower triangle of the
// symmetrized graph (as in tools/tricount); sum(C) is the triangle count.
// The masked pipeline, run_numeric_masked and the mask-seeded accumulators
// run here and nowhere else in the benchmark; the symbolic and sort passes
// are bypassed.
//
// The traced run calls analyze_rows -> plan_global_lb -> run_numeric_masked
// itself and checks its C bit-identical to multiply_masked's.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/matrix_stats.h"
#include "ref/masked.h"
#include "speck/masked_pass.h"
#include "speck/speck.h"
#include "stages.h"
#include "yardstick.h"

namespace speckbench {
namespace {

using namespace speck;

struct Graph {
  std::string name;
  Csr lower;  ///< strictly-lower triangle of the undirected pattern, values 1
  offset_t products = 0;
  double triangles = 0.0;  ///< oracle count
};

/// Strictly-lower triangle of the symmetrized pattern of `g`, values 1.
Csr lower_of_undirected(const Csr& g) {
  Coo lower(g.rows(), g.cols());
  for (index_t r = 0; r < g.rows(); ++r) {
    for (const index_t c : g.row_cols(r)) {
      if (c != r) lower.add(std::max(r, c), std::min(r, c), 1.0);
    }
  }
  Csr l = lower.to_csr();  // duplicates merged
  for (value_t& v : l.values_mutable()) v = 1.0;
  return l;
}

std::vector<Graph> make_graphs(std::uint64_t seed) {
  std::vector<Graph> graphs;
  const auto add = [&](const char* name, const Csr& g) {
    Graph graph{name, lower_of_undirected(g), 0, 0.0};
    graph.products = count_products(graph.lower, graph.lower);
    graph.triangles = masked_product_sum(graph.lower, graph.lower, graph.lower);
    graphs.push_back(std::move(graph));
  };
  add("rmat13", gen::rmat(13, 8, 0.45, 0.22, 0.22, sub_seed(seed, 1)));
  add("rmat12-skewed", gen::rmat(12, 16, 0.57, 0.19, 0.19, sub_seed(seed, 2)));
  add("powerlaw", gen::power_law(10000, 10000, 8, 1.8, 500, sub_seed(seed, 3)));
  return graphs;
}

/// The yardstick's rate over (L * L) masked by L at full speed on the
/// recording host (2 x all products over its seconds).
constexpr double kYardstickGflops = 0.7;

double sum_values(const Csr& c) {
  double sum = 0.0;
  for (const value_t v : c.values()) sum += v;
  return sum;
}

/// Per-layer sums over the traced multiplies.
struct Layers {
  double sim_analysis = 0.0, sim_lb = 0.0, sim_masked = 0.0, probes = 0.0;
  double lb_used = 0.0, blocks = 0.0;
};

/// analyze_rows -> plan_global_lb -> run_numeric_masked with spans.
Csr traced_masked(Speck& speck, const Csr& l, Tracer& tracer, int parent,
                  std::uint64_t request, Layers& layers) {
  KernelContext ctx = kernel_context(speck, l, l);
  sim::LaunchTrace launches;
  ctx.trace = &launches;
  ctx.mask = &l;
  RowAnalysis analysis;
  {
    ScopedSpan span(&tracer, "speck.row_analysis", parent, request);
    sim::Launch launch("row_analysis", speck.device(), speck.cost_model());
    analysis = analyze_rows(l, l, launch, ctx.pool);
    layers.sim_analysis += launch.finish().seconds;
  }
  ctx.analysis = &analysis;
  std::vector<index_t> demand(static_cast<std::size_t>(l.rows()));
  BinPlan plan;
  {
    ScopedSpan span(&tracer, "speck.global_lb", parent, request);
    const auto offsets = l.row_offsets();
    for (std::size_t r = 0; r < demand.size(); ++r) {
      demand[r] = static_cast<index_t>(
          std::min(analysis.products[r], offsets[r + 1] - offsets[r]));
    }
    const std::vector<offset_t> entries =
        numeric_entries(demand, speck.config().max_numeric_fill);
    sim::Launch launch("numeric_lb", speck.device(), speck.cost_model());
    plan = plan_global_lb({entries, /*symbolic=*/false}, speck.configs(), speck.config(),
                          launch);
    if (plan.used_load_balancer) {
      layers.sim_lb += launch.finish().seconds;
      layers.lb_used += 1.0;
    }
    layers.blocks += static_cast<double>(plan.blocks.size());
  }
  ScopedSpan span(&tracer, "speck.masked", parent, request);
  MaskedNumericOutcome masked = run_numeric_masked(ctx, plan, demand);
  layers.sim_masked += masked.stats.seconds;
  layers.probes += static_cast<double>(masked.stats.hash_probes);
  return std::move(masked.c);
}

}  // namespace

RunResult run_tricount(const Options& opt, Tracer* tracer) {
  const std::vector<Graph> graphs = make_graphs(opt.seed);
  std::vector<std::pair<const Csr*, const Csr*>> operands;
  for (const Graph& g : graphs) operands.push_back({&g.lower, &g.lower});
  Yardstick yardstick(Yardstick::Kernel::kMasked, std::move(operands), kYardstickGflops);
  InputSize input;
  input.patterns = graphs.size();
  for (const Graph& g : graphs) {
    input.rows += g.lower.rows();
    input.nnz += g.lower.nnz();
    input.products += g.products;
  }
  input.extra = "(plan cache off)";
  print_input("tricount", input);

  SpeckConfig cfg;
  cfg.plan_cache = false;
  cfg.planning = PlanningMode::kExact;
  cfg.host_threads = kPoolThreads;
  cfg.partitions = kPartitions;
  std::unique_ptr<Speck> speck;
  const double setup_s = run_setups(yardstick, [&] {
    speck = std::make_unique<Speck>(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    for (const Graph& g : graphs) {
      if (!speck->multiply_masked(g.lower, g.lower, g.lower).ok()) {
        throw std::runtime_error("warm-up failed: " + g.name);
      }
    }
  });

  RunResult out;
  LoopStats loop;
  StageSim stage_sim;
  std::vector<Csr> speck_c(graphs.size());
  const double untraced_s = tracer != nullptr ? opt.seconds / 3.0 : opt.seconds;
  const auto start = Clock::now();
  while (loop.ops == 0 || seconds_between(start, Clock::now()) < untraced_s) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const Graph& g = graphs[i];
      const auto t0 = Clock::now();
      SpGemmResult r = speck->multiply_masked(g.lower, g.lower, g.lower);
      const auto t1 = Clock::now();
      const double dt = seconds_between(t0, t1);
      const bool match = r.ok() && sum_values(r.c) == g.triangles;
      ++out.attempted;
      if (!match) ++out.failed;
      if (r.ok() && !match) ++out.mismatches;
      loop.add(i, dt, t1, g.products, r.seconds, match);
      stage_sim.add(r.timeline);
      if (tracer != nullptr && speck_c[i].nnz() == 0) speck_c[i] = std::move(r.c);
      yardstick.keep_up(dt);
    }
  }
  if (tracer == nullptr) {
    report_closed_loop(loop, yardstick, setup_s, out);
    return out;
  }

  LoopStats traced;
  Layers layers;
  std::uint64_t request = 0;
  const auto traced_start = Clock::now();
  while (traced.ops == 0 ||
         seconds_between(traced_start, Clock::now()) < opt.seconds - untraced_s) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const Graph& g = graphs[i];
      const auto t0 = Clock::now();
      Csr c;
      {
        ScopedSpan op(tracer, "tricount.multiply", -1, ++request);
        c = traced_masked(*speck, g.lower, *tracer, op.index(), request, layers);
      }
      const auto t1 = Clock::now();
      const bool match = same_bits(c, speck_c[i]) && sum_values(c) == g.triangles;
      ++out.attempted;
      if (!match) ++out.failed, ++out.mismatches;
      traced.add(i, seconds_between(t0, t1), t1, g.products, 0.0, match);
    }
  }
  const double n = static_cast<double>(traced.ops);
  out.set("speck.row_analysis.wall_s", tracer->self_seconds("speck.row_analysis") / n);
  out.set("speck.row_analysis.sim_s", layers.sim_analysis / n);
  out.set("speck.global_lb.wall_s", tracer->self_seconds("speck.global_lb") / n);
  out.set("speck.global_lb.sim_s", layers.sim_lb / n);
  out.set("speck.global_lb.lb_used", layers.lb_used / n);
  out.set("speck.global_lb.blocks", layers.blocks / n);
  out.set("speck.masked.wall_s", tracer->self_seconds("speck.masked") / n);
  out.set("speck.masked.sim_s", layers.sim_masked / n);
  out.set("speck.masked.hash_probes", layers.probes / n);
  stage_sim.report(out);
  out.set("trace.overhead", loop.gflops(nullptr) / traced.gflops(nullptr));
  out.set("host.slowdown", yardstick.median_slowdown());
  return out;
}

}  // namespace speckbench
