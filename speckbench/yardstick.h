// The host-speed yardstick every timed end-to-end metric is scaled by.
//
// The benchmark runs on shared hosts whose speed drifts by a quarter or
// more for tens of seconds at a time, long enough to cover whole runs, so
// raw wall times of the same code spread past any useful bound between
// runs. The yardstick is a plain single-threaded SpGEMM written here, run
// over the workload's own inputs, so it touches the same data in the same
// caches as the library calls it is interleaved with, and no library change
// can move it. It comes in three kernels, each like the library work it
// scales: a Gustavson multiply for full multiplies, a Gustavson multiply
// masked by A's own pattern for triangle counting, and a values-only
// replay of a precomputed product-to-output program for plan replays.
// Each library wall time is divided by the host's slowdown at that moment:
// the yardstick's nominal rate over the median rate of the measurements
// nearest in time. A slower library slows the library calls and not the
// yardstick, so it shows in full; a slower host slows both and mostly
// cancels.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bench.h"

namespace speckbench {

class Yardstick {
 public:
  enum class Kernel {
    kGustavson,  ///< dense row accumulator, touched columns sorted
    kMasked,     ///< dense row accumulator admitting only A's row pattern
    kReplay,     ///< one 4-byte output slot per product, streamed
  };

  /// The slowdown at a moment is the median over this many measurements
  /// nearest to it.
  static constexpr std::size_t kNearest = 5;

  /// `operands`: the (A, B) pairs one measurement multiplies, referenced,
  /// not copied. `nominal_gflops`: the yardstick's rate on them at full
  /// speed on the recording host (README.md), so scaled figures read as
  /// seconds on that host.
  Yardstick(Kernel kernel, std::vector<std::pair<const Csr*, const Csr*>> operands,
            double nominal_gflops);

  /// Multiplies every operand pair once and records when and how fast.
  void measure();
  /// Counts `seconds` of library work, then measures until the yardstick
  /// has run as long as all library work counted so far, so the two share
  /// the host's time about equally.
  void keep_up(double seconds);

  /// Host slowdown around `at`: nominal rate over the median rate of the
  /// kNearest measurements closest to it.
  double slowdown(Clock::time_point at) const;
  /// Wall `seconds` of work that ended at `end`, scaled to nominal speed.
  double scale(double seconds, Clock::time_point end) const;

  /// Median rate over the whole run, GFLOP/s.
  double median_gflops() const;
  /// Nominal over median rate: how much slower than nominal the run's host was.
  double median_slowdown() const { return nominal_gflops_ / median_gflops(); }
  /// Prints "yardstick: ..." with the measurement count, rates and slowdown.
  void print() const;

 private:
  struct Sample {
    Clock::time_point at;  ///< midpoint of the measurement
    double gflops;
  };

  double gustavson();
  double masked();
  double replay();

  Kernel kernel_;
  std::vector<std::pair<const Csr*, const Csr*>> operands_;
  double nominal_gflops_;
  double flops_ = 0.0;  ///< 2 x products of one measurement
  std::vector<Sample> samples_;
  double work_s_ = 0.0;      ///< library seconds counted by keep_up
  double measured_s_ = 0.0;  ///< yardstick seconds since the first keep_up
  double checksum_ = 0.0;

  // Gustavson: row accumulator, sized for the widest B.
  std::vector<double> acc_;
  std::vector<std::uint32_t> mark_;
  std::vector<index_t> touched_;
  // Replay: per operand pair, the output slot of every product in
  // multiply order and the output size; one output buffer for all.
  std::vector<std::vector<std::uint32_t>> program_;
  std::vector<std::size_t> c_nnz_;
  std::vector<double> c_;
};

}  // namespace speckbench
