// iterate: an AMG-style fixed-pattern loop. A few stencil, banded and
// power-law patterns are multiplied over and over through Speck::multiply
// with the transparent plan cache on and estimated planning; every call gets
// fresh values (value variants prepared in set-up, each with its oracle).
// In the timed loop only the fingerprint, the cache lookup and the
// values-only replay run, so a kernel or load-balancer change must read "no
// change" on gflops here. The plans together are far larger than a core's
// L2, so replay streams from memory.
//
// The traced run decomposes each call into the public pieces the hit path
// is made of: plan_fingerprint -> PlanCache::find -> multiply_with_plan.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "matrix/matrix_stats.h"
#include "ref/gustavson.h"
#include "speck/estimator.h"
#include "speck/speck.h"
#include "yardstick.h"

namespace speckbench {
namespace {

using namespace speck;

constexpr int kVariants = 3;

struct Pattern {
  std::string name;
  std::vector<Csr> a;       ///< value variants of one pattern; C = A * A
  std::vector<Csr> oracle;  ///< per variant
  offset_t products = 0;
};

std::vector<Pattern> make_patterns(std::uint64_t seed) {
  std::vector<Pattern> patterns;
  const auto add = [&](const char* name, const Csr& structure) {
    Pattern p;
    p.name = name;
    for (int v = 0; v < kVariants; ++v) {
      p.a.push_back(with_values(structure, sub_seed(seed, 100 + patterns.size() * 16 + v)));
    }
    p.products = count_products(structure, structure);
    patterns.push_back(std::move(p));
  };
  add("stencil2d", gen::stencil_2d(200, 200));
  add("stencil3d", gen::stencil_3d(14));
  add("banded", gen::banded(12000, 200, 12, sub_seed(seed, 1)));
  add("banded-wide", gen::banded(6000, 600, 10, sub_seed(seed, 3)));
  add("powerlaw", gen::power_law(8000, 8000, 6, 2.0, 400, sub_seed(seed, 2)));
  // An odd pattern count puts the latency median inside one pattern's
  // spread rather than in the gap between two.
  return patterns;
}

/// The yardstick's rate over the patterns at full speed on the recording host.
constexpr double kYardstickGflops = 0.8;

SpeckConfig iterate_config() {
  SpeckConfig cfg;
  cfg.plan_cache = true;
  cfg.planning = PlanningMode::kEstimated;
  cfg.host_threads = kPoolThreads;
  cfg.partitions = kPartitions;
  return cfg;
}

/// Computed (not measured) bytes one replay streams: per product the 4-byte
/// program word and the 8-byte B value; per A entry its column and value;
/// per C entry the zero fill and the final value write.
double replay_bytes(const SpeckPlan& plan, const Csr& a) {
  return 12.0 * static_cast<double>(plan.program.ops()) +
         12.0 * static_cast<double>(a.nnz()) +
         16.0 * static_cast<double>(plan.c_nnz());
}

}  // namespace

RunResult run_iterate(const Options& opt, Tracer* tracer) {
  std::vector<Pattern> patterns = make_patterns(opt.seed);
  std::vector<std::pair<const Csr*, const Csr*>> operands;
  for (const Pattern& p : patterns) operands.push_back({&p.a[0], &p.a[0]});
  Yardstick yardstick(Yardstick::Kernel::kReplay, std::move(operands), kYardstickGflops);
  offset_t rows = 0, nnz = 0, products = 0;
  for (Pattern& p : patterns) {
    for (const Csr& a : p.a) p.oracle.push_back(gustavson_spgemm(a, a));
    rows += p.a[0].rows();
    nnz += p.a[0].nnz();
    products += p.products;
  }

  // Set-up: construct, then call each pattern until the plan cache holds its
  // plan. Repeated; the last instance serves the timed loop.
  RunResult out;
  std::unique_ptr<Speck> speck;
  double capture_s = 0.0, underflow_rows = 0.0;
  int captures = 0, setups = 0;
  const double setup_s = run_setups(yardstick, [&] {
    ++setups;
    speck = std::make_unique<Speck>(sim::DeviceSpec::titan_v(), sim::CostModel{},
                                    iterate_config());
    for (const Pattern& p : patterns) {
      const std::uint64_t before = speck->plan_cache().stats().insertions;
      for (int call = 0; speck->plan_cache().stats().insertions == before; ++call) {
        if (call == 8) throw std::runtime_error("plan never cached: " + p.name);
        const auto c0 = Clock::now();
        const SpGemmResult r = speck->multiply(p.a[0], p.a[0]);
        if (!r.ok()) throw std::runtime_error("set-up multiply failed: " + p.name);
        if (speck->plan_cache().stats().insertions != before) {
          capture_s += seconds_between(c0, Clock::now());
          underflow_rows +=
              static_cast<double>(speck->last_diagnostics().numeric.estimate_underflow_rows);
          ++captures;
        }
      }
    }
  });
  std::size_t plan_bytes = speck->plan_cache().stats().bytes;
  double program_ops = 0.0;
  for (const Pattern& p : patterns) {
    program_ops += static_cast<double>(
        speck->plan_cache().find(plan_fingerprint(p.a[0], p.a[0], speck->config()))
            ->program.ops());
  }
  print_input("iterate", {patterns.size(), rows, nnz, products, static_cast<double>(plan_bytes),
                          "variants=" + std::to_string(kVariants)});

  const PlanCacheStats cache_start = speck->plan_cache().stats();
  LoopStats loop;
  StageSim stage_sim;
  const auto run_call = [&](std::size_t call, LoopStats& stats, auto&& multiply) {
    const Pattern& p = patterns[call % patterns.size()];
    const int variant = static_cast<int>((call / patterns.size()) % kVariants);
    const Csr& a = p.a[static_cast<std::size_t>(variant)];
    const auto t0 = Clock::now();
    SpGemmResult r = multiply(a);
    const auto t1 = Clock::now();
    const double dt = seconds_between(t0, t1);
    const bool match = r.ok() && same_bits(r.c, p.oracle[static_cast<std::size_t>(variant)]);
    ++out.attempted;
    if (!match) ++out.failed;
    if (r.ok() && !match) ++out.mismatches;
    stats.add(call % patterns.size(), dt, t1, p.products, r.seconds, match);
    return r;
  };

  // Untraced loop: the whole run, or its first third when tracing.
  std::size_t call = 0;
  const double untraced_s = tracer != nullptr ? opt.seconds / 3.0 : opt.seconds;
  const auto start = Clock::now();
  while (call % patterns.size() != 0 || seconds_between(start, Clock::now()) < untraced_s) {
    const auto t0 = Clock::now();
    const SpGemmResult r =
        run_call(call++, loop, [&](const Csr& a) { return speck->multiply(a, a); });
    yardstick.keep_up(seconds_between(t0, Clock::now()));
    stage_sim.add(r.timeline);
  }
  if (tracer == nullptr) {
    report_closed_loop(loop, yardstick, setup_s, out);
    return out;
  }

  // Traced loop: the hit path, one public call per layer.
  LoopStats traced;
  double bytes = 0.0, ops = 0.0;
  const auto traced_start = Clock::now();
  std::uint64_t request = 0;
  while (call % patterns.size() != 0 ||
         seconds_between(traced_start, Clock::now()) < opt.seconds - untraced_s) {
    run_call(call++, traced, [&](const Csr& a) {
      ScopedSpan op(tracer, "iterate.multiply", -1, ++request);
      PlanFingerprint fp;
      {
        ScopedSpan span(tracer, "speck.plan.fingerprint", op.index(), request);
        fp = plan_fingerprint(a, a, speck->config());
      }
      std::shared_ptr<const SpeckPlan> plan;
      {
        ScopedSpan span(tracer, "speck.plan_cache.find", op.index(), request);
        plan = speck->plan_cache().find(fp);
      }
      if (plan == nullptr) {
        SpGemmResult miss;
        miss.status = SpGemmStatus::kUnsupported;
        return miss;
      }
      bytes += replay_bytes(*plan, a);
      ops += static_cast<double>(plan->program.ops());
      ScopedSpan span(tracer, "speck.replay", op.index(), request);
      return speck->multiply_with_plan(*plan, a, a);
    });
  }

  // Estimator: the sampled row estimate each plan build starts from.
  for (const Pattern& p : patterns) {
    ScopedSpan span(tracer, "speck.estimator");
    sim::Launch launch("row_estimator", speck->device(), speck->cost_model());
    estimate_rows(p.a[0], p.a[0], speck->config(), launch, speck->host_pool());
  }

  const double n = static_cast<double>(traced.ops);
  const double replay_s = tracer->self_seconds("speck.replay");
  out.set("speck.plan.fingerprint_us", tracer->self_seconds("speck.plan.fingerprint") / n * 1e6);
  out.set("speck.plan.capture_wall_s", capture_s / captures);
  out.set("speck.plan.program_ops", program_ops);
  out.set("speck.plan.plan_bytes", static_cast<double>(plan_bytes));
  out.set("speck.estimator.wall_s", tracer->self_seconds("speck.estimator") /
                                        static_cast<double>(patterns.size()));
  out.set("speck.estimator.fallback_rate",
          underflow_rows / (static_cast<double>(rows) * static_cast<double>(setups)));
  report_plan_cache(cache_start, speck->plan_cache().stats(), out);
  out.set("speck.plan_cache.find_us", tracer->self_seconds("speck.plan_cache.find") / n * 1e6);
  out.set("speck.replay.wall_s", replay_s / n);
  out.set("speck.replay.ops", ops / n);
  out.set("speck.replay.computed_gb", bytes / n * 1e-9);
  out.set("speck.replay.computed_gbps", bytes / replay_s * 1e-9);
  stage_sim.report(out);
  out.set("trace.overhead", loop.gflops(nullptr) / traced.gflops(nullptr));
  out.set("host.slowdown", yardstick.median_slowdown());
  return out;
}

}  // namespace speckbench
