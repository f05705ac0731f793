// Regenerates Table 3: overall statistics of every algorithm across the
// evaluation collection — #best, #best (>15k products), #invalid, average
// time, relative peak memory, average relative time, and the number of
// matrices where a method is more than 5x slower than the best.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"

using namespace speck;
using namespace speck::bench;

namespace {

struct AlgoStats {
  int best = 0;
  int best_over_15k = 0;
  int invalid = 0;
  double time_sum = 0.0;        // over the common completed subset
  int time_count = 0;
  double mem_ratio_sum = 0.0;   // vs speck, common subset
  double mem_ratio_sum_15k = 0.0;
  int mem_count = 0;
  int mem_count_15k = 0;
  double rel_time_sum = 0.0;    // vs per-matrix best
  int rel_count = 0;
  double rel_time_sum_15k = 0.0;
  int rel_count_15k = 0;
  int over_5x = 0;
  int over_5x_15k = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // Host parallelism: --threads N (default SPECK_THREADS / hardware). The
  // measured *simulated* times are bit-identical at any thread count; only
  // the host wall-clock below changes.
  GateArgs args = report_args();
  args.text_flag("--csv");
  const int threads = apply_report_args(args, argc, argv);
  if (threads == 0) return 2;
  const auto corpus = gen::evaluation_collection();
  const auto algorithms = baselines::make_all_algorithms(
      sim::DeviceSpec::titan_v(), sim::CostModel{});
  std::vector<Measurement> measurements;
  const double parallel_wall = wall_seconds(
      [&] { measurements = run_suite(corpus, algorithms); });
  // Optional raw-data export: bench_table3_overall --csv <path>
  if (!args.text("--csv").empty()) write_csv(args.text("--csv"), measurements);

  // Index measurements per matrix.
  std::map<std::string, std::vector<const Measurement*>> by_matrix;
  std::map<std::string, offset_t> products;
  for (const Measurement& m : measurements) {
    by_matrix[m.matrix].push_back(&m);
    products[m.matrix] = m.products;
  }

  // The paper's "†" subset: matrices completed by all GPU approaches except
  // KokkosKernels; used for t_avg and the memory ratios.
  std::map<std::string, bool> in_common_subset;
  std::map<std::string, std::size_t> speck_memory;
  for (const auto& [matrix, rows] : by_matrix) {
    bool all_ok = true;
    for (const Measurement* m : rows) {
      if (m->algorithm == "kokkos" || m->algorithm == "mkl") continue;
      all_ok = all_ok && m->status == SpGemmStatus::kOk;
      if (m->algorithm == "speck") speck_memory[matrix] = m->peak_memory_bytes;
    }
    in_common_subset[matrix] = all_ok;
  }

  std::map<std::string, AlgoStats> stats;
  for (const auto& [matrix, rows] : by_matrix) {
    double best = 0.0;
    bool first = true;
    for (const Measurement* m : rows) {
      if (m->status != SpGemmStatus::kOk) continue;
      best = first ? m->seconds : std::min(best, m->seconds);
      first = false;
    }
    const bool over_15k = products[matrix] > 15000;
    for (const Measurement* m : rows) {
      AlgoStats& s = stats[m->algorithm];
      if (m->status != SpGemmStatus::kOk) {
        ++s.invalid;
        continue;
      }
      if (m->seconds <= best * (1.0 + 1e-12)) {
        ++s.best;
        if (over_15k) ++s.best_over_15k;
      }
      const double rel = m->seconds / best;
      s.rel_time_sum += rel;
      ++s.rel_count;
      if (rel > 5.0) ++s.over_5x;
      if (over_15k) {
        s.rel_time_sum_15k += rel;
        ++s.rel_count_15k;
        if (rel > 5.0) ++s.over_5x_15k;
      }
      if (in_common_subset[matrix] && m->algorithm != "kokkos") {
        s.time_sum += m->seconds;
        ++s.time_count;
        if (speck_memory.count(matrix) != 0 && m->algorithm != "mkl") {
          const double ratio = static_cast<double>(m->peak_memory_bytes) /
                               static_cast<double>(speck_memory[matrix]);
          s.mem_ratio_sum += ratio;
          ++s.mem_count;
          if (over_15k) {
            s.mem_ratio_sum_15k += ratio;
            ++s.mem_count_15k;
          }
        }
      }
    }
  }

  std::printf("Table 3: overall statistics over %zu matrices\n", corpus.size());
  std::printf("(t_avg and m/m_b over the subset completed by all GPU methods"
              " except kokkos; * = matrices with >15k products)\n\n");
  const std::vector<int> widths{10, 7, 8, 6, 10, 8, 9, 8, 8, 6, 7};
  print_row({"method", "#best", "#best*", "#inv", "t_avg(ms)", "m/m_b", "m/m_b*",
             "t/t_b", "t/t_b*", "#5x", "#5x*"},
            widths);
  for (const auto& algorithm : algorithms) {
    const AlgoStats& s = stats[algorithm->name()];
    print_row(
        {algorithm->name(), std::to_string(s.best), std::to_string(s.best_over_15k),
         std::to_string(s.invalid),
         s.time_count ? format_double(s.time_sum / s.time_count * 1e3) : "-",
         s.mem_count ? format_double(s.mem_ratio_sum / s.mem_count) : "-",
         s.mem_count_15k ? format_double(s.mem_ratio_sum_15k / s.mem_count_15k) : "-",
         s.rel_count ? format_double(s.rel_time_sum / s.rel_count) : "-",
         s.rel_count_15k ? format_double(s.rel_time_sum_15k / s.rel_count_15k) : "-",
         std::to_string(s.over_5x), std::to_string(s.over_5x_15k)},
        widths);
  }

  // Host-side scaling report: the identical suite (verification included,
  // as above — a fair comparison) pinned to one thread.
  set_global_thread_count(1);
  const double serial_wall =
      wall_seconds([&] { (void)run_suite(corpus, algorithms); });
  set_global_thread_count(threads);
  std::printf("\nhost wall-clock: %.2fs at %d thread(s) vs %.2fs serial"
              " (speedup %.2fx; simulated results identical)\n",
              parallel_wall, threads, serial_wall, serial_wall / parallel_wall);
  return 0;
}
