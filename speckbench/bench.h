// Shared pieces of the repository benchmark: run options, the metric sink,
// the in-memory span recorder and small helpers every workload uses.
//
// Each workload is one function that builds its inputs from the seed, runs
// its set-up, measures for the requested seconds and verifies every output.
// Untraced runs fill the end-to-end metrics; traced runs wrap spans around
// the calls into each library layer and fill the per-layer metrics.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "matrix/csr.h"
#include "sim/timeline.h"
#include "speck/plan_cache.h"

namespace speckbench {

using speck::Csr;
using speck::index_t;
using speck::offset_t;
using speck::value_t;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Named values in insertion order; main.cpp checks every name against the
/// metric table of the mode it prints.
struct Metric {
  std::string name;
  double value = 0.0;
};

struct RunResult {
  std::vector<Metric> metrics;
  /// Operations attempted and failed (non-OK status or wrong output).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correct responses over the latency limit (serve). They count in the
  /// fail_rate metric and against goodput, not in `failed`: one host stall
  /// past the limit must not make two runs of the same code disagree.
  std::uint64_t late = 0;
  /// Outputs that differed from their oracle; any makes the run exit 1.
  std::uint64_t mismatches = 0;

  void set(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
};

/// One span: a call into a layer, timed on the steady clock.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
  int thread = 0;
};

/// Fixed-capacity span store. begin() claims a slot with one atomic add, so
/// several threads record concurrently without locks; spans past the
/// capacity are counted as dropped, never reallocated. Read the spans only
/// after every recording thread has been joined.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// Opens a span and returns its index (-1 when the store is full).
  int begin(const char* name, int parent, std::uint64_t request, int thread);
  void end(int index);

  std::span<const Span> spans() const;
  std::uint64_t dropped() const { return dropped_.load(); }

  /// Self time (span minus its children) summed over the spans named `name`.
  double self_seconds(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  void write_chrome_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1,
             std::uint64_t request = 0, int thread = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, parent, request, thread)
                                 : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

class Yardstick;

/// Operations of a closed-loop timed segment: one caller, back to back, in
/// whole passes over the workload's inputs, with the yardstick keeping up
/// between operations (Yardstick::keep_up).
struct LoopStats {
  std::size_t ops = 0;
  double flops = 0.0;  ///< 2 x intermediate products, OK operations
  double sim_s = 0.0;  ///< simulated TITAN-V seconds, OK operations

  /// Operation `input` (an index into the workload's inputs) took `seconds`
  /// and ended at `end`.
  void add(std::size_t input, double seconds, Clock::time_point end, offset_t products,
           double sim_seconds, bool good) {
    if (input >= inputs_.size()) inputs_.resize(input + 1);
    ++ops;
    inputs_[input].ops.push_back({seconds, end, good});
    inputs_[input].products = products;
    if (!good) return;
    flops += 2.0 * static_cast<double>(products);
    sim_s += sim_seconds;
  }

  /// One pass over the inputs, each at the median of its operation times,
  /// scaled by `yardstick` (raw wall time when it is null).
  struct Pass {
    std::vector<double> input_median_s;  ///< per input, its median time
    double seconds = 0.0;                ///< sum of the inputs' median times
    double flops = 0.0;                  ///< 2 x products of the inputs
    double ok = 0.0;                     ///< inputs x OK share of operations
  };
  Pass pass(const Yardstick* yardstick) const;
  double gflops(const Yardstick* yardstick) const {
    const Pass p = pass(yardstick);
    return p.flops / p.seconds * 1e-9;
  }

 private:
  struct Op {
    double seconds;
    Clock::time_point end;
    bool good;
  };
  struct Input {
    std::vector<Op> ops;
    offset_t products = 0;
  };
  std::vector<Input> inputs_;
};

/// Prints the yardstick and the raw figures, and sets the end-to-end metrics
/// of a closed-loop workload, scaled by the yardstick. A closed run has far
/// fewer than the 1000 operations a p99 needs with ten beyond it, so p50
/// and p99 are taken over the inputs' median times (p99: the slowest
/// input's typical call), which a stray slow call cannot move.
/// There is no latency limit, so goodput is OK operations per second of one
/// median pass.
void report_closed_loop(const LoopStats& loop, const Yardstick& yardstick, double setup_s,
                        RunResult& out);

/// Simulated seconds per pipeline stage (SpGemmResult::timeline), reported
/// per operation as the sim.* metrics.
struct StageSim {
  std::array<double, speck::sim::kStageCount> seconds{};
  double ops = 0.0;

  void add(const speck::sim::StageTimeline& timeline) {
    for (int s = 0; s < speck::sim::kStageCount; ++s) {
      seconds[static_cast<std::size_t>(s)] += timeline.seconds(static_cast<speck::sim::Stage>(s));
    }
    ops += 1.0;
  }
  void report(RunResult& out) const;
};

/// The speck.plan_cache.* counters between two snapshots, plus the bytes
/// resident at the second.
void report_plan_cache(const speck::PlanCacheStats& before,
                       const speck::PlanCacheStats& after, RunResult& out);


/// Library pool threads of every workload. One: on a shared 4-vCPU host,
/// a pass spread over 4 threads waits for whichever thread the hypervisor
/// descheduled, and 4-thread rates swung by a third between runs, while
/// single-thread rates held within a few percent.
inline constexpr int kPoolThreads = 1;

/// Executor partitions of every workload. Pinned, because 0 (auto) would
/// read SPECK_PARTITIONS; with one partition the traced stages also use the
/// same workspaces the library's own multiply uses.
inline constexpr int kPartitions = 1;

/// Set-up repeats at least kSetupReps times and until the repetitions add
/// up to kSetupWindowS, with the yardstick keeping up after each, so every
/// repetition is scaled by the host speed around it.
inline constexpr std::size_t kSetupReps = 3;
inline constexpr double kSetupWindowS = 2.0;

/// Runs `setup` (which builds a fresh instance; the caller keeps the last)
/// as above, prints every repetition's raw seconds and returns setup_s: the
/// median of their yardstick-scaled seconds.
double run_setups(Yardstick& yardstick, const std::function<void()>& setup);

// --- helpers (main.cpp) -----------------------------------------------------

/// Bitwise equality of two CSR matrices (dims, pattern and value bits).
bool same_bits(const Csr& x, const Csr& y);
bool same_bits(std::span<const value_t> x, std::span<const value_t> y);

/// Independent sub-seed for input `salt` of the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt);

/// Copy of `m` with fresh values drawn from `seed` (pattern unchanged).
Csr with_values(const Csr& m, std::uint64_t seed);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// The stated input size of a run, so a claim can be re-checked on a seed
/// not used while writing it.
struct InputSize {
  std::size_t patterns = 0;
  offset_t rows = 0;
  offset_t nnz = 0;
  offset_t products = 0;  ///< intermediate products, one pass over the inputs
  double plan_bytes = 0;  ///< all plans together (0: no plans)
  std::string extra;      ///< workload-specific "key=value ..." fields
};

/// Prints "input <workload>: ..." with the plan bytes next to L2/LLC sizes.
void print_input(const std::string& workload, const InputSize& input);

// --- workloads --------------------------------------------------------------

RunResult run_oneshot(const Options& opt, Tracer* tracer);
RunResult run_iterate(const Options& opt, Tracer* tracer);
RunResult run_serve(const Options& opt, Tracer* tracer);
RunResult run_tricount(const Options& opt, Tracer* tracer);

// --- machine probe (machine.cpp) ------------------------------------------

struct Machine {
  unsigned nproc = 0;
  std::string simd_backend;
  std::size_t l2_bytes = 0;
  std::size_t llc_bytes = 0;
  /// STREAM-style triad a[i] = b[i] + s*c[i] over three arrays of
  /// `triad_array_bytes` each, on all cores; best of a few sweeps.
  std::size_t triad_array_bytes = 0;
  double triad_gbps = 0.0;
};

Machine probe_machine();
void measure_triad(Machine& machine);

}  // namespace speckbench
