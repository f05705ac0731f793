#include "yardstick.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace speckbench {

Yardstick::Yardstick(Kernel kernel, std::vector<std::pair<const Csr*, const Csr*>> operands,
                     double nominal_gflops)
    : kernel_(kernel), operands_(std::move(operands)), nominal_gflops_(nominal_gflops) {
  index_t cols = 0;
  for (const auto& [a, b] : operands_) {
    cols = std::max(cols, b->cols());
    const auto a_cols = a->col_indices();
    for (const index_t k : a_cols) flops_ += 2.0 * static_cast<double>(b->row_length(k));
  }
  acc_.assign(static_cast<std::size_t>(cols), 0.0);
  mark_.assign(static_cast<std::size_t>(cols), 0);
  touched_.reserve(static_cast<std::size_t>(cols));
  if (kernel_ != Kernel::kReplay) return;

  // Replay program: each row's output columns sorted, every product mapped
  // to its column's slot.
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(cols));
  std::size_t widest = 0;
  for (const auto& [a, b] : operands_) {
    std::vector<std::uint32_t>& program = program_.emplace_back();
    std::size_t c_nnz = 0;
    for (index_t r = 0; r < a->rows(); ++r) {
      const auto stamp = static_cast<std::uint32_t>(r) + 1;
      for (const index_t k : a->row_cols(r)) {
        for (const index_t col : b->row_cols(k)) {
          const auto c = static_cast<std::size_t>(col);
          if (mark_[c] == stamp) continue;
          mark_[c] = stamp;
          touched_.push_back(col);
        }
      }
      std::sort(touched_.begin(), touched_.end());
      for (const index_t col : touched_) {
        slot[static_cast<std::size_t>(col)] = static_cast<std::uint32_t>(c_nnz++);
      }
      touched_.clear();
      for (const index_t k : a->row_cols(r)) {
        for (const index_t col : b->row_cols(k)) {
          program.push_back(slot[static_cast<std::size_t>(col)]);
        }
      }
    }
    std::fill(mark_.begin(), mark_.end(), 0u);
    c_nnz_.push_back(c_nnz);
    widest = std::max(widest, c_nnz);
  }
  c_.assign(widest, 0.0);
}

void Yardstick::measure() {
  const auto t0 = Clock::now();
  const double checksum = kernel_ == Kernel::kGustavson ? gustavson()
                          : kernel_ == Kernel::kMasked  ? masked()
                                                        : replay();
  const auto t1 = Clock::now();
  if (!samples_.empty() && checksum != checksum_) throw std::runtime_error("yardstick drifted");
  checksum_ = checksum;
  const double seconds = seconds_between(t0, t1);
  samples_.push_back({t0 + (t1 - t0) / 2, flops_ / seconds * 1e-9});
  measured_s_ += seconds;
}

double Yardstick::replay() {
  // Zero the output, stream the program beside A and B, and fold the
  // output into a checksum so no work can be elided.
  double checksum = 0.0;
  for (std::size_t o = 0; o < operands_.size(); ++o) {
    const Csr& a = *operands_[o].first;
    const Csr& b = *operands_[o].second;
    const auto b_offsets = b.row_offsets();
    const auto b_vals = b.values();
    const std::uint32_t* slot = program_[o].data();
    double* c = c_.data();
    std::fill(c, c + c_nnz_[o], 0.0);
    const auto a_cols = a.col_indices();
    const auto a_vals = a.values();
    for (std::size_t i = 0; i < a_cols.size(); ++i) {
      const auto k = static_cast<std::size_t>(a_cols[i]);
      const double av = a_vals[i];
      for (offset_t j = b_offsets[k]; j < b_offsets[k + 1]; ++j) {
        c[*slot++] += av * b_vals[static_cast<std::size_t>(j)];
      }
    }
    for (std::size_t i = 0; i < c_nnz_[o]; ++i) checksum += c[i];
  }
  return checksum;
}

double Yardstick::masked() {
  // Seed the accumulator with A's row pattern, drop every product outside
  // it, and fold the row into a checksum.
  double checksum = 0.0;
  for (const auto& [a, b] : operands_) {
    const auto b_offsets = b->row_offsets();
    const auto b_cols = b->col_indices();
    const auto b_vals = b->values();
    for (index_t r = 0; r < a->rows(); ++r) {
      const auto stamp = static_cast<std::uint32_t>(r) + 1;
      const auto a_cols = a->row_cols(r);
      const auto a_vals = a->row_vals(r);
      for (const index_t col : a_cols) {
        mark_[static_cast<std::size_t>(col)] = stamp;
        acc_[static_cast<std::size_t>(col)] = 0.0;
      }
      for (std::size_t i = 0; i < a_cols.size(); ++i) {
        const auto k = static_cast<std::size_t>(a_cols[i]);
        for (offset_t j = b_offsets[k]; j < b_offsets[k + 1]; ++j) {
          const auto col = static_cast<std::size_t>(b_cols[static_cast<std::size_t>(j)]);
          if (mark_[col] == stamp) acc_[col] += a_vals[i] * b_vals[static_cast<std::size_t>(j)];
        }
      }
      for (const index_t col : a_cols) checksum += acc_[static_cast<std::size_t>(col)];
    }
    std::fill(mark_.begin(), mark_.end(), 0u);
  }
  return checksum;
}

double Yardstick::gustavson() {
  // Row-by-row Gustavson: scatter into a dense accumulator, sort the
  // touched columns as a CSR output would be, and fold the row into a
  // checksum so no work can be elided.
  double checksum = 0.0;
  std::uint32_t stamp = 0;
  for (const auto& [a, b] : operands_) {
    const auto b_offsets = b->row_offsets();
    const auto b_cols = b->col_indices();
    const auto b_vals = b->values();
    for (index_t r = 0; r < a->rows(); ++r) {
      ++stamp;
      const auto a_cols = a->row_cols(r);
      const auto a_vals = a->row_vals(r);
      for (std::size_t i = 0; i < a_cols.size(); ++i) {
        const auto k = static_cast<std::size_t>(a_cols[i]);
        for (offset_t j = b_offsets[k]; j < b_offsets[k + 1]; ++j) {
          const auto col = static_cast<std::size_t>(b_cols[static_cast<std::size_t>(j)]);
          if (mark_[col] != stamp) {
            mark_[col] = stamp;
            acc_[col] = 0.0;
            touched_.push_back(static_cast<index_t>(col));
          }
          acc_[col] += a_vals[i] * b_vals[static_cast<std::size_t>(j)];
        }
      }
      std::sort(touched_.begin(), touched_.end());
      for (const index_t col : touched_) checksum += acc_[static_cast<std::size_t>(col)];
      touched_.clear();
    }
    std::fill(mark_.begin(), mark_.end(), 0u);
    stamp = 0;
  }
  return checksum;
}

void Yardstick::keep_up(double seconds) {
  work_s_ += seconds;
  while (measured_s_ < work_s_) measure();
}

double Yardstick::slowdown(Clock::time_point at) const {
  if (samples_.empty()) throw std::runtime_error("yardstick never measured");
  // Samples are in time order: start at the first one after `at` and widen
  // to whichever neighbour is closer until kNearest are taken.
  const auto first_after = std::partition_point(
      samples_.begin(), samples_.end(), [&](const Sample& s) { return s.at < at; });
  std::size_t lo = static_cast<std::size_t>(first_after - samples_.begin());
  std::size_t hi = lo;
  std::vector<double> nearest;
  while (nearest.size() < kNearest && (lo > 0 || hi < samples_.size())) {
    const bool take_low =
        hi == samples_.size() ||
        (lo > 0 && seconds_between(samples_[lo - 1].at, at) < seconds_between(at, samples_[hi].at));
    nearest.push_back(take_low ? samples_[--lo].gflops : samples_[hi++].gflops);
  }
  return nominal_gflops_ / median(nearest);
}

double Yardstick::scale(double seconds, Clock::time_point end) const {
  const auto mid = end - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds / 2.0));
  return seconds / slowdown(mid);
}

double Yardstick::median_gflops() const {
  std::vector<double> all;
  for (const Sample& s : samples_) all.push_back(s.gflops);
  return median(all);
}

void Yardstick::print() const {
  std::printf("yardstick: measurements=%zu gflop_per_measurement=%.6g median_gflops=%.6g "
              "nominal_gflops=%g slowdown=%.4f\n",
              samples_.size(), flops_ * 1e-9, median_gflops(), nominal_gflops_,
              median_slowdown());
}

}  // namespace speckbench
