// speckbench — the repository benchmark (README.md beside this file).
//
//   speckbench --workload oneshot|iterate|serve|tricount --seed N
//              --seconds S --trace 0|1 [--trace-out FILE]
//
// Builds the workload's inputs from the seed, runs its set-up, measures for
// S seconds, verifies every output against an oracle and prints, as the
// last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end table below, with --trace 1
// the per-layer table (spans around every call into a layer; written as
// Chrome trace-event JSON to --trace-out).
//
// Exit codes: 0 ok, 1 an output differed from its oracle, 2 usage, 3 error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench.h"
#include "common/alloc_counter.h"
#include "common/prng.h"
#include "speck/config.h"
#include "yardstick.h"

// Counting allocator: makes PassStats::hot_path_allocs live (see
// common/alloc_counter.h), as in bench/bench_hotpath.cpp.
void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  ++speck::detail::thread_alloc_events;
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace speckbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"gflops", "GFLOP/s"},
    {"sim_gflops", "GFLOP/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"goodput_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// Must match "per_layer" in BENCHMARK.json. A layer a workload does not
// exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"speck.row_analysis.wall_s", "s"},
    {"speck.row_analysis.sim_s", "s"},
    {"speck.global_lb.wall_s", "s"},
    {"speck.global_lb.sim_s", "s"},
    {"speck.global_lb.lb_used", "count"},
    {"speck.global_lb.blocks", "count"},
    {"speck.symbolic.wall_s", "s"},
    {"speck.symbolic.sim_s", "s"},
    {"speck.symbolic.hash_probes", "count"},
    {"speck.symbolic.global_hash_blocks", "count"},
    {"speck.symbolic.rows_direct", "count"},
    {"speck.symbolic.rows_dense", "count"},
    {"speck.symbolic.rows_hash", "count"},
    {"speck.numeric.wall_s", "s"},
    {"speck.numeric.sim_s", "s"},
    {"speck.numeric.sort_sim_s", "s"},
    {"speck.numeric.hash_probes", "count"},
    {"speck.numeric.global_inserts", "count"},
    {"speck.numeric.radix_sorted_elements", "count"},
    {"speck.numeric.hot_path_allocs", "count"},
    {"speck.numeric.rows_direct", "count"},
    {"speck.numeric.rows_dense", "count"},
    {"speck.numeric.rows_hash", "count"},
    {"speck.estimator.wall_s", "s"},
    {"speck.estimator.fallback_rate", "ratio"},
    {"speck.masked.wall_s", "s"},
    {"speck.masked.sim_s", "s"},
    {"speck.masked.hash_probes", "count"},
    {"speck.plan.fingerprint_us", "us"},
    {"speck.plan.capture_wall_s", "s"},
    {"speck.plan.program_ops", "count"},
    {"speck.plan.plan_bytes", "bytes"},
    {"speck.plan_cache.hits", "count"},
    {"speck.plan_cache.misses", "count"},
    {"speck.plan_cache.hit_ratio", "ratio"},
    {"speck.plan_cache.insertions", "count"},
    {"speck.plan_cache.evictions", "count"},
    {"speck.plan_cache.rejected_inserts", "count"},
    {"speck.plan_cache.find_us", "us"},
    {"speck.plan_cache.plan_mb", "MiB"},
    {"speck.replay.wall_s", "s"},
    {"speck.replay.ops", "count"},
    {"speck.replay.computed_gb", "GB"},
    {"speck.replay.computed_gbps", "GB/s"},
    {"speck.replay.bw_share", "ratio"},
    {"speck.service.replays", "count"},
    {"speck.service.plans_built", "count"},
    {"speck.service.rejected", "count"},
    {"speck.service.shed", "count"},
    {"speck.service.timed_out", "count"},
    {"speck.service.degraded", "count"},
    {"speck.service.queued_share", "ratio"},
    {"speck.service.replay_p50_ms", "ms"},
    {"speck.service.miss_p50_ms", "ms"},
    {"sim.analysis_s", "s"},
    {"sim.symbolic_lb_s", "s"},
    {"sim.symbolic_s", "s"},
    {"sim.numeric_lb_s", "s"},
    {"sim.numeric_s", "s"},
    {"sim.sorting_s", "s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.spans", "count"},
    {"ref.gustavson_1t_gflops", "GFLOP/s"},
    {"host.slowdown", "ratio"},
    {"machine.triad_gbps", "GB/s"},
    {"fail_rate", "ratio"},
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: speckbench --workload oneshot|iterate|serve|tricount "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
}

/// Prints the result line: every metric of `table`, in table order, taking
/// values from `result` (0 for a metric the workload does not measure).
/// Returns false when the workload set a name the table does not know.
template <std::size_t N>
bool print_result(const RunResult& result, const MetricSpec (&table)[N],
                  bool correct) {
  for (const Metric& m : result.metrics) {
    const bool known = std::any_of(std::begin(table), std::end(table),
                                   [&](const MetricSpec& s) { return m.name == s.name; });
    if (!known) {
      std::fprintf(stderr, "internal error: unknown metric %s\n", m.name.c_str());
      return false;
    }
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    double value = 0.0;
    for (const Metric& m : result.metrics) {
      if (m.name == table[i].name) value = m.value;
    }
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) line += ", ";
    line += "\"" + std::string(table[i].name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + table[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return true;
}

double metric_value(const RunResult& result, const std::string& name) {
  for (const Metric& m : result.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace

// --- helpers ---------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

bool same_bits(std::span<const value_t> x, std::span<const value_t> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

bool same_bits(const Csr& x, const Csr& y) {
  const auto xo = x.row_offsets();
  const auto yo = y.row_offsets();
  const auto xc = x.col_indices();
  const auto yc = y.col_indices();
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::equal(xo.begin(), xo.end(), yo.begin(), yo.end()) &&
         std::equal(xc.begin(), xc.end(), yc.begin(), yc.end()) &&
         same_bits(x.values(), y.values());
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + salt;
  speck::splitmix64(state);
  return speck::splitmix64(state);
}

Csr with_values(const Csr& m, std::uint64_t seed) {
  Csr copy = m;
  speck::Xoshiro256 rng(seed);
  for (value_t& v : copy.values_mutable()) v = rng.next_double(0.5, 1.5);
  return copy;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

LoopStats::Pass LoopStats::pass(const Yardstick* yardstick) const {
  Pass p;
  for (const Input& input : inputs_) {
    std::vector<double> seconds;
    double good = 0.0;
    for (const Op& op : input.ops) {
      const double s = yardstick != nullptr ? yardstick->scale(op.seconds, op.end) : op.seconds;
      seconds.push_back(s);
      good += op.good ? 1.0 : 0.0;
    }
    if (seconds.empty()) continue;
    p.input_median_s.push_back(median(seconds));
    p.seconds += p.input_median_s.back();
    p.flops += 2.0 * static_cast<double>(input.products);
    p.ok += good / static_cast<double>(seconds.size());
  }
  return p;
}

void report_closed_loop(const LoopStats& loop, const Yardstick& yardstick, double setup_s,
                        RunResult& out) {
  const LoopStats::Pass raw = loop.pass(nullptr);
  const LoopStats::Pass scaled = loop.pass(&yardstick);
  yardstick.print();
  std::printf("latency: samples=%zu inputs=%zu; raw gflops=%.6g p50_ms=%.6g p99_ms=%.6g\n",
              loop.ops, scaled.input_median_s.size(), raw.flops / raw.seconds * 1e-9,
              percentile(raw.input_median_s, 50.0) * 1e3,
              percentile(raw.input_median_s, 99.0) * 1e3);
  out.set("setup_s", setup_s);
  out.set("gflops", scaled.flops / scaled.seconds * 1e-9);
  out.set("sim_gflops", loop.sim_s > 0.0 ? loop.flops / loop.sim_s * 1e-9 : 0.0);
  out.set("latency_p50_ms", percentile(scaled.input_median_s, 50.0) * 1e3);
  out.set("latency_p99_ms", percentile(scaled.input_median_s, 99.0) * 1e3);
  out.set("goodput_rps", scaled.ok / scaled.seconds);
}

void report_plan_cache(const speck::PlanCacheStats& before,
                       const speck::PlanCacheStats& after, RunResult& out) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  const double hits = delta(after.hits, before.hits);
  const double misses = delta(after.misses, before.misses);
  out.set("speck.plan_cache.hits", hits);
  out.set("speck.plan_cache.misses", misses);
  out.set("speck.plan_cache.hit_ratio", hits / std::max(hits + misses, 1.0));
  out.set("speck.plan_cache.insertions", delta(after.insertions, before.insertions));
  out.set("speck.plan_cache.evictions", delta(after.evictions, before.evictions));
  out.set("speck.plan_cache.rejected_inserts",
          delta(after.rejected_inserts, before.rejected_inserts));
  out.set("speck.plan_cache.plan_mb", static_cast<double>(after.bytes) / (1 << 20));
}

double run_setups(Yardstick& yardstick, const std::function<void()>& setup) {
  std::vector<double> seconds;
  std::vector<Clock::time_point> ends;
  double total = 0.0;
  yardstick.measure();
  while (seconds.size() < kSetupReps || total < kSetupWindowS) {
    const auto t0 = Clock::now();
    setup();
    ends.push_back(Clock::now());
    seconds.push_back(seconds_between(t0, ends.back()));
    total += seconds.back();
    yardstick.keep_up(seconds.back());
  }
  std::string line = "setup: raw seconds";
  std::vector<double> scaled;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    line += " " + std::to_string(seconds[i]);
    scaled.push_back(yardstick.scale(seconds[i], ends[i]));
  }
  std::printf("%s\n", line.c_str());
  return median(scaled);
}

void StageSim::report(RunResult& out) const {
  using speck::sim::Stage;
  const std::pair<Stage, const char*> stages[] = {
      {Stage::kAnalysis, "sim.analysis_s"},        {Stage::kSymbolicLoadBalance, "sim.symbolic_lb_s"},
      {Stage::kSymbolic, "sim.symbolic_s"},        {Stage::kNumericLoadBalance, "sim.numeric_lb_s"},
      {Stage::kNumeric, "sim.numeric_s"},          {Stage::kSorting, "sim.sorting_s"},
  };
  for (const auto& [stage, name] : stages) {
    out.set(name, ops > 0.0 ? seconds[static_cast<std::size_t>(stage)] / ops : 0.0);
  }
}

void print_input(const std::string& workload, const InputSize& in) {
  const Machine m = probe_machine();
  std::printf("input %s: patterns=%zu rows=%lld nnz=%lld products=%lld plan_bytes=%.0f "
              "(%.2f x l2, %.3f x llc) %s\n",
              workload.c_str(), in.patterns, static_cast<long long>(in.rows),
              static_cast<long long>(in.nnz), static_cast<long long>(in.products),
              in.plan_bytes, in.plan_bytes / static_cast<double>(std::max<std::size_t>(m.l2_bytes, 1)),
              in.plan_bytes / static_cast<double>(std::max<std::size_t>(m.llc_bytes, 1)),
              in.extra.c_str());
}

// --- tracer ----------------------------------------------------------------

Tracer::Tracer(std::size_t capacity) : origin_(Clock::now()), spans_(capacity) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(const char* name, int parent, std::uint64_t request, int thread) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = spans_[slot];
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.thread = thread;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  return static_cast<int>(slot);
}

void Tracer::end(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::span<const Span> Tracer::spans() const {
  return {spans_.data(), std::min(next_.load(), spans_.size())};
}

double Tracer::self_seconds(const std::string& name) const {
  const std::span<const Span> all = spans();
  const auto seconds = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  };
  double total = 0.0;
  for (const Span& s : all) {
    if (s.name == name) total += seconds(s);
    // A parent opens before its children, so its index is always in range.
    if (s.parent >= 0 && all[static_cast<std::size_t>(s.parent)].name == name) {
      total -= seconds(s);
    }
  }
  return total;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::span<const Span> all = spans();
  char buf[320];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"request\": %llu}}%s\n",
                  s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

}  // namespace speckbench

int main(int argc, char** argv) {
  using namespace speckbench;
  Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      opt.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_value) {
      opt.trace_path = argv[++i];
    } else {
      print_usage(stderr);
      return 2;
    }
  }
  if ((trace != 0 && trace != 1) || opt.seconds <= 0.0) {
    print_usage(stderr);
    return 2;
  }
  opt.trace = trace == 1;

  RunResult (*run)(const Options&, Tracer*) = nullptr;
  if (opt.workload == "oneshot") run = run_oneshot;
  if (opt.workload == "iterate") run = run_iterate;
  if (opt.workload == "serve") run = run_serve;
  if (opt.workload == "tricount") run = run_tricount;
  if (run == nullptr) {
    print_usage(stderr);
    return 2;
  }

  try {
    Machine machine = probe_machine();
    std::printf("machine: nproc=%u simd=%s l2_bytes=%zu llc_bytes=%zu pool_threads=%d "
                "partitions=%d\n",
                machine.nproc, machine.simd_backend.c_str(), machine.l2_bytes,
                machine.llc_bytes, kPoolThreads, speck::resolve_partitions(kPartitions));
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, trace);
    std::fflush(stdout);

    std::unique_ptr<Tracer> tracer;
    if (opt.trace) tracer = std::make_unique<Tracer>(std::size_t{1} << 19);
    RunResult result = run(opt, tracer.get());
    // Read before the triad sweep, whose arrays would otherwise set it.
    const double rss = peak_rss_mb();

    measure_triad(machine);
    std::printf("machine: triad_gbps=%.3f triad_array_bytes=%zu (3 arrays, each %.1fx llc)\n",
                machine.triad_gbps, machine.triad_array_bytes,
                static_cast<double>(machine.triad_array_bytes) /
                    static_cast<double>(std::max<std::size_t>(machine.llc_bytes, 1)));

    if (opt.trace) {
      result.set("machine.triad_gbps", machine.triad_gbps);
      result.set("speck.replay.bw_share",
                 metric_value(result, "speck.replay.computed_gbps") / machine.triad_gbps);
      result.set("trace.spans", static_cast<double>(tracer->spans().size()));
      // Untraced runs carry the failure count in attempted/failed alone.
      const auto attempted = std::max<std::uint64_t>(result.attempted, 1);
      result.set("fail_rate", static_cast<double>(result.failed + result.late) /
                                  static_cast<double>(attempted));
      if (tracer->dropped() > 0) {
        std::printf("trace: %llu spans dropped (store full)\n",
                    static_cast<unsigned long long>(tracer->dropped()));
      }
      if (!opt.trace_path.empty()) {
        tracer->write_chrome_json(opt.trace_path);
        std::printf("trace: %zu spans written to %s\n", tracer->spans().size(),
                    opt.trace_path.c_str());
      }
    } else {
      result.set("peak_rss_mb", rss);
    }
    if (result.mismatches > 0) {
      std::fprintf(stderr, "FAIL: %llu outputs differ from their oracle\n",
                   static_cast<unsigned long long>(result.mismatches));
    }
    std::fflush(stdout);
    const bool correct = result.mismatches == 0;
    const bool printed = opt.trace ? print_result(result, kPerLayer, correct)
                                   : print_result(result, kEndToEnd, correct);
    if (!printed) return 3;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
