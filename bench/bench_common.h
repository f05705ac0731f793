// Shared helpers for the benchmark/report binaries: each binary regenerates
// one of the paper's tables or figures (DESIGN.md §4) as formatted text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/suite.h"
#include "gen/corpus.h"
#include "matrix/ops.h"
#include "ref/spgemm_api.h"
#include "speck/speck.h"

namespace speck::bench {

/// One algorithm's measurement on one corpus entry.
struct Measurement {
  std::string algorithm;
  std::string matrix;
  offset_t products = 0;
  SpGemmStatus status = SpGemmStatus::kOk;
  double seconds = 0.0;
  double gflops = 0.0;
  std::size_t peak_memory_bytes = 0;
  sim::StageTimeline timeline;
};

/// Runs every algorithm on every corpus entry. Results are verified against
/// the exact oracle once per matrix (any mismatch aborts — benchmarks must
/// not report wrong results).
std::vector<Measurement> run_suite(
    const std::vector<gen::CorpusEntry>& corpus,
    const std::vector<std::unique_ptr<SpGemmAlgorithm>>& algorithms,
    bool verify = true);

/// Fixed-width table printing.
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string format_double(double v, int precision = 2);
std::string format_bytes_mb(std::size_t bytes);

/// Per-matrix best time among OK measurements; key = matrix name.
std::map<std::string, double> best_seconds_per_matrix(
    const std::vector<Measurement>& measurements);

/// Monotonic clock reading in seconds.
double steady_seconds();

/// Host wall-clock of `fn()` in seconds (monotonic clock).
double wall_seconds(const std::function<void()>& fn);

}  // namespace speck::bench

namespace speck::bench {

/// Writes the raw measurements as CSV (one row per algorithm x matrix) for
/// downstream plotting: algorithm,matrix,products,status,seconds,gflops,
/// peak_memory_bytes.
void write_csv(const std::string& path, const std::vector<Measurement>& measurements);

}  // namespace speck::bench

namespace speck::bench {

/// Renders series as a fixed-height ASCII line chart (one symbol per
/// series, x = sample index, optional log-scaled y). Used to draw the
/// trend figures in the terminal.
std::string ascii_chart(const std::vector<std::string>& series_names,
                        const std::vector<std::vector<double>>& series,
                        int height = 16, bool log_scale = true);

}  // namespace speck::bench

// The gate benches (bench_{hotpath,reuse,simd,planning,masked,service,scaleout})
// share one command line, one key=value emitter, one counting allocator
// (counting_new.cpp) and one paired-ratio timer. Each bench prints
// key=value / point= lines for tools/bench_to_json and exits 0 (pass),
// 1 (a gate failed) or 2 (usage or run error).
namespace speck::bench {

/// A gate bench's command line. `--quick` is a switch and `--threads N`
/// replaces the thread sweep; every other flag but a switch_flag() takes
/// one value. Flags apply in order, so a flag after `--quick` overrides its
/// setting. Each bench registers its own flags:
///
///   GateArgs args({1, 8}, {1});
///   args.count_flag("--iterations", 5).flag("--min-speedup", 2.0);
///
/// With no `quick_threads` there is no `--quick`: the report benches'
/// command line (report_args()).
class GateArgs {
 public:
  GateArgs(std::vector<int> threads, std::vector<int> quick_threads);

  /// Registers `name X` for a real number, with its default and,
  /// optionally, the value `--quick` selects.
  GateArgs& flag(std::string name, double value, std::optional<double> quick = {});
  /// Registers `name N` for a count: a whole number from 0 to 2^53.
  GateArgs& count_flag(std::string name, std::uint64_t value,
                       std::optional<std::uint64_t> quick = {});
  /// Registers a bare `name`, which get() reads as 1 when given, else 0.
  GateArgs& switch_flag(std::string name);
  /// Registers `name TEXT` for a string (a path), read with text().
  GateArgs& text_flag(std::string name);

  /// Parses argv. An unknown flag, a flag without a value, a value that is
  /// not a number, a count that is not a whole number in range, or a
  /// `--threads` outside 1..1024 prints the usage line and returns false
  /// (exit 2).
  bool parse(int argc, const char* const* argv);

  double get(std::string_view name) const;
  std::uint64_t count(std::string_view name) const {
    return static_cast<std::uint64_t>(get(name));
  }
  const std::string& text(std::string_view name) const;

  std::vector<int> threads;  ///< thread counts to sweep
  bool quick = false;

 private:
  enum class Kind { kReal, kCount, kSwitch, kText };
  struct Flag {
    std::string name;
    double value;
    std::optional<double> quick;
    Kind kind;
    std::string text;  ///< a text_flag()'s value
  };
  const Flag& find(std::string_view name) const;
  std::vector<Flag> flags_;
  std::vector<int> quick_threads_;
};

/// A report bench's command line: `--threads N` only, defaulting to
/// SPECK_THREADS or the hardware. A bench registers its own flags on it.
GateArgs report_args();

/// Parses a report bench's command line and resizes the process-wide host
/// pool to its `--threads`. Returns the thread count in effect, or 0 after
/// printing the usage line (the bench exits 2). Results are bit-identical
/// for every thread count; only host wall-clock changes.
int apply_report_args(GateArgs& args, int argc, char** argv);
/// For a report bench without flags of its own.
int apply_report_args(int argc, char** argv);

/// `key=value` output lines: numbers as %.6g, counts exact.
void emit(const std::string& key, double value);
void emit_count(const std::string& key, std::size_t value);
/// Opens a `point=<label>` group; an empty label closes it.
void emit_point(const std::string& label);

/// Wall times of two sides measured in rounds by time_paired().
struct PairedRatio {
  double a_seconds = 0.0;      ///< side A's wall time over all rounds
  double b_seconds = 0.0;      ///< side B's wall time over all rounds
  std::vector<double> ratios;  ///< per round: A's wall time over B's
  double median = 0.0;         ///< of `ratios`; what a gate reads
  double q1 = 0.0;             ///< lower quartile of `ratios`
  double q3 = 0.0;             ///< upper quartile of `ratios`
};

/// Times side A against side B one unit at a time (a unit is a corpus
/// entry or a whole client run). Unit u of round r runs A then B when u + r
/// is even and B then A when it is odd, so drift on the machine lands on
/// both sides instead of one. A side reports a failure by throwing; the
/// exception leaves time_paired(). `clock` returns seconds.
PairedRatio time_paired(std::size_t units, std::size_t rounds,
                        const std::function<void(std::size_t)>& a,
                        const std::function<void(std::size_t)>& b,
                        const std::function<double()>& clock = steady_seconds);

/// Emits `key` (the median round ratio) and, when there was more than one
/// round, `key_q1` and `key_q3`.
void emit_ratio(const std::string& key, const PairedRatio& ratio);

/// Throws (the bench exits 2) unless `result` is ok; `what` names the
/// call and `name` the input.
void require_ok(const SpGemmResult& result, const char* what, const std::string& name);
/// Throws (the bench exits 2) unless `plan` is complete.
void require_complete(const SpeckPlan& plan, const char* what, const std::string& name);

/// True when got[e] and want[e] hold the same CSR bytes for every entry.
/// Prints "FAIL: <what> differs on <corpus[e].name>" for each that does not.
template <class Corpus>
bool same_bits(const std::vector<Csr>& got, const std::vector<Csr>& want,
               const Corpus& corpus, const char* what) {
  bool same = true;
  for (std::size_t e = 0; e < got.size(); ++e) {
    if (compare(got[e], want[e], 0.0).has_value()) {
      std::fprintf(stderr, "FAIL: %s differs on %s\n", what, corpus[e].name.c_str());
      same = false;
    }
  }
  return same;
}

/// The zero-allocation gate: true when `allocs` is 0 and the counting
/// operator new is linked in, so that the 0 was measured. Prints why
/// otherwise.
bool zero_alloc_gate(std::size_t allocs, const char* what);

/// The speedup floor: true when `ratio` reaches `floor`. Prints why not.
bool floor_gate(const char* what, double ratio, double floor);

/// Runs a gate bench's checks; `body` returns true when a gate failed.
/// Returns the exit code: 0 after printing `gate=pass`, 1 on a failed
/// gate, 2 when `body` threw.
int run_gate(const std::function<bool()>& body);

/// run_gate() over a thread sweep: `point(threads)` runs once per thread
/// count, inside a `point=threads<N>` group that starts with `threads=N`.
int run_gate(const std::vector<int>& threads, const std::function<bool(int)>& point);

}  // namespace speck::bench
