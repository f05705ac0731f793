// oneshot: cold Speck::multiply over a Table-4-like corpus, one caller,
// closed loop. Plan cache off and exact planning, so row analysis, both
// global load-balancing passes, symbolic, numeric and the radix sort do all
// the work; plan capture, the cache, replay and the service do none.
//
// The traced run calls the stage functions itself (analyze_rows ->
// plan_global_lb -> run_symbolic -> plan_global_lb -> run_numeric) with a
// span around each, and checks that its C is bit-identical to the one
// Speck::multiply returned for the same entry.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/speck.h"
#include "stages.h"
#include "yardstick.h"

namespace speckbench {
namespace {

using namespace speck;

struct Entry {
  std::string name;
  Csr a;
  Csr b;
  offset_t products = 0;
  Csr oracle;
};

/// The 11 entries of gen::common_corpus, same generators and sizes, every
/// random one drawn from the workload seed (the stencils have no
/// randomness). Not smaller: at a quarter of the rows one hub row of the
/// power-law entries sets their simulated time, which then swung up to 5x
/// from seed to seed.
std::vector<Entry> make_corpus(std::uint64_t seed) {
  std::vector<Entry> corpus;
  const auto square = [&](const char* name, Csr a) {
    Csr b = a;
    corpus.push_back({name, std::move(a), std::move(b), 0, {}});
  };
  const auto rectangular = [&](const char* name, Csr a) {
    Csr b = transpose(a);
    corpus.push_back({name, std::move(a), std::move(b), 0, {}});
  };
  const auto s = [&](std::uint64_t salt) { return sub_seed(seed, salt); };
  square("webbase", gen::power_law(20000, 20000, 3, 1.7, 2000, s(1)));
  square("hugebubbles", gen::stencil_2d(260, 200));
  square("mario002", gen::banded(40000, 40, 4, s(2)));
  rectangular("stat96v2", gen::rectangular_lp(4000, 130000, 70, s(3)));
  square("email-Enron", gen::power_law(6000, 6000, 10, 1.8, 1500, s(4)));
  square("cage13", gen::banded(24000, 400, 8, s(5)));
  square("144", gen::banded(16000, 600, 14, s(6)));
  square("poisson3Da", gen::stencil_3d(13));
  square("QCD", gen::banded(3000, 700, 32, s(7)));
  square("harbor", gen::banded(4000, 800, 44, s(8)));
  square("TSC_OPF", gen::block_diagonal(8, 100, 0.95, s(9)));
  for (Entry& e : corpus) e.products = count_products(e.a, e.b);
  return corpus;
}

/// The yardstick's rate over the corpus at full speed on the recording host.
constexpr double kYardstickGflops = 0.08;

SpeckConfig oneshot_config() {
  SpeckConfig cfg;
  cfg.plan_cache = false;
  cfg.planning = PlanningMode::kExact;
  cfg.host_threads = kPoolThreads;
  cfg.partitions = kPartitions;
  return cfg;
}

/// Stage-by-stage multiply with a span around every stage call; returns C.
Csr traced_multiply(Speck& speck, const Entry& e, Tracer& tracer, int parent,
                    std::uint64_t request, RunResult& layers) {
  const auto add = [&](const char* name, double v) {
    for (Metric& m : layers.metrics) {
      if (m.name == name) {
        m.value += v;
        return;
      }
    }
    layers.set(name, v);
  };
  const auto add_pass = [&](const char* layer, const PassStats& s) {
    const std::string p = layer;
    add((p + ".hash_probes").c_str(), static_cast<double>(s.hash_probes));
    add((p + ".rows_direct").c_str(), static_cast<double>(s.direct_rows));
    add((p + ".rows_dense").c_str(), static_cast<double>(s.dense_rows));
    add((p + ".rows_hash").c_str(), static_cast<double>(s.hash_rows));
  };
  KernelContext ctx = kernel_context(speck, e.a, e.b);
  // Record launches like Speck::multiply does, so both loops do equal work.
  sim::LaunchTrace launches;
  ctx.trace = &launches;
  const SpeckConfig& cfg = speck.config();

  RowAnalysis analysis;
  {
    ScopedSpan span(&tracer, "speck.row_analysis", parent, request);
    sim::Launch launch("row_analysis", speck.device(), speck.cost_model());
    analysis = analyze_rows(e.a, e.b, launch, ctx.pool);
    add("speck.row_analysis.sim_s", launch.finish().seconds);
  }
  ctx.analysis = &analysis;

  const auto balance = [&](std::span<const offset_t> demand, bool symbolic) {
    ScopedSpan span(&tracer, "speck.global_lb", parent, request);
    sim::Launch launch(symbolic ? "symbolic_lb" : "numeric_lb", speck.device(),
                       speck.cost_model());
    BinPlan plan = plan_global_lb({demand, symbolic}, speck.configs(), cfg, launch);
    if (plan.used_load_balancer) {
      add("speck.global_lb.sim_s", launch.finish().seconds);
      add("speck.global_lb.lb_used", 1.0);
    }
    add("speck.global_lb.blocks", static_cast<double>(plan.blocks.size()));
    return plan;
  };

  const BinPlan symbolic_plan = balance(analysis.products, /*symbolic=*/true);
  SymbolicOutcome symbolic;
  {
    ScopedSpan span(&tracer, "speck.symbolic", parent, request);
    symbolic = run_symbolic(ctx, symbolic_plan);
  }
  add("speck.symbolic.sim_s", symbolic.stats.seconds);
  add("speck.symbolic.global_hash_blocks",
      static_cast<double>(symbolic.stats.global_hash_blocks));
  add_pass("speck.symbolic", symbolic.stats);

  const std::vector<offset_t> demand =
      numeric_entries(symbolic.row_nnz, cfg.max_numeric_fill);
  const BinPlan numeric_plan = balance(demand, /*symbolic=*/false);
  NumericOutcome numeric;
  {
    ScopedSpan span(&tracer, "speck.numeric", parent, request);
    numeric = run_numeric(ctx, numeric_plan, symbolic.row_nnz);
  }
  add("speck.numeric.sim_s", numeric.stats.seconds);
  add("speck.numeric.sort_sim_s", numeric.sorting_seconds);
  add("speck.numeric.global_inserts", static_cast<double>(numeric.stats.global_inserts));
  add("speck.numeric.radix_sorted_elements",
      static_cast<double>(numeric.radix_sorted_elements));
  add("speck.numeric.hot_path_allocs",
      static_cast<double>(numeric.stats.hot_path_allocs));
  add_pass("speck.numeric", numeric.stats);
  return std::move(numeric.c);
}

}  // namespace

RunResult run_oneshot(const Options& opt, Tracer* tracer) {
  std::vector<Entry> corpus = make_corpus(opt.seed);
  std::vector<std::pair<const Csr*, const Csr*>> operands;
  for (const Entry& e : corpus) operands.push_back({&e.a, &e.b});
  Yardstick yardstick(Yardstick::Kernel::kGustavson, std::move(operands), kYardstickGflops);

  // Oracle: single-threaded Gustavson, also the plain baseline rate.
  double oracle_s = 0.0;
  offset_t c_nnz = 0;
  InputSize input;
  input.patterns = corpus.size();
  for (Entry& e : corpus) {
    const auto t0 = Clock::now();
    e.oracle = gustavson_spgemm(e.a, e.b);
    oracle_s += seconds_between(t0, Clock::now());
    input.rows += e.a.rows();
    input.nnz += e.a.nnz();
    input.products += e.products;
    c_nnz += e.oracle.nnz();
  }
  input.extra = "c_nnz=" + std::to_string(c_nnz) + " (plan cache off)";
  print_input("oneshot", input);

  // Set-up: construct and warm every workspace with one pass; repeated, the
  // last instance serves the timed loop.
  std::unique_ptr<Speck> speck;
  const double setup_s = run_setups(yardstick, [&] {
    speck = std::make_unique<Speck>(sim::DeviceSpec::titan_v(), sim::CostModel{},
                                    oneshot_config());
    for (const Entry& e : corpus) {
      if (!speck->multiply(e.a, e.b).ok()) throw std::runtime_error("warm-up failed: " + e.name);
    }
  });

  RunResult out;
  // Untraced loop: the whole run, or its first third when tracing (the
  // reference for trace.overhead and the C the traced stages must match).
  LoopStats loop;
  StageSim stage_sim;
  std::vector<Csr> speck_c(corpus.size());
  const auto start = Clock::now();
  const double untraced_s = tracer != nullptr ? opt.seconds / 3.0 : opt.seconds;
  while (loop.ops == 0 || seconds_between(start, Clock::now()) < untraced_s) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Entry& e = corpus[i];
      const auto t0 = Clock::now();
      SpGemmResult r = speck->multiply(e.a, e.b);
      const auto t1 = Clock::now();
      const double dt = seconds_between(t0, t1);
      const bool match = r.ok() && same_bits(r.c, e.oracle);
      ++out.attempted;
      if (!match) ++out.failed;
      if (r.ok() && !match) ++out.mismatches;
      loop.add(i, dt, t1, e.products, r.seconds, match);
      stage_sim.add(r.timeline);
      if (tracer != nullptr && speck_c[i].nnz() == 0) speck_c[i] = std::move(r.c);
      yardstick.keep_up(dt);
    }
  }
  if (tracer == nullptr) {
    report_closed_loop(loop, yardstick, setup_s, out);
    return out;
  }

  // Traced loop: whole corpus passes through the stage functions.
  LoopStats traced;
  std::uint64_t request = 0;
  const auto traced_start = Clock::now();
  while (traced.ops == 0 ||
         seconds_between(traced_start, Clock::now()) < opt.seconds - untraced_s) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Entry& e = corpus[i];
      const auto t0 = Clock::now();
      Csr c;
      {
        ScopedSpan op(tracer, "oneshot.multiply", -1, ++request);
        c = traced_multiply(*speck, e, *tracer, op.index(), request, out);
      }
      const auto t1 = Clock::now();
      const bool match = same_bits(c, speck_c[i]);
      ++out.attempted;
      if (!match) ++out.failed, ++out.mismatches;
      traced.add(i, seconds_between(t0, t1), t1, e.products, 0.0, match);
    }
  }
  const double ops = static_cast<double>(traced.ops);
  for (Metric& m : out.metrics) m.value /= ops;  // per multiply
  for (const char* layer :
       {"speck.row_analysis", "speck.global_lb", "speck.symbolic", "speck.numeric"}) {
    out.set(std::string(layer) + ".wall_s", tracer->self_seconds(layer) / ops);
  }
  stage_sim.report(out);
  out.set("trace.overhead", loop.gflops(nullptr) / traced.gflops(nullptr));
  out.set("host.slowdown", yardstick.median_slowdown());
  out.set("ref.gustavson_1t_gflops",
          2.0 * static_cast<double>(input.products) / oracle_s * 1e-9);
  return out;
}

}  // namespace speckbench
