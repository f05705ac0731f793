// Regenerates Figure 6 (GFLOPS over matrices ordered by product count,
// bucketed) and, with --per-matrix, the appendix Figure 15 listing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "common/stats.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  GateArgs args = report_args();
  args.switch_flag("--per-matrix");
  if (apply_report_args(args, argc, argv) == 0) return 2;
  const bool per_matrix = args.get("--per-matrix") != 0.0;
  const auto corpus = gen::evaluation_collection();
  const auto algorithms = baselines::make_all_algorithms(
      sim::DeviceSpec::titan_v(), sim::CostModel{});
  auto measurements = run_suite(corpus, algorithms);

  // Failed runs are replaced by the slowest valid timing for the matrix
  // (the paper's Fig. 6 convention).
  std::map<std::string, double> slowest;
  for (const Measurement& m : measurements) {
    if (m.status != SpGemmStatus::kOk) continue;
    auto [it, inserted] = slowest.emplace(m.matrix, m.seconds);
    if (!inserted) it->second = std::max(it->second, m.seconds);
  }
  for (Measurement& m : measurements) {
    if (m.status == SpGemmStatus::kOk || slowest.count(m.matrix) == 0) continue;
    m.seconds = slowest[m.matrix];
    m.gflops = 2.0 * static_cast<double>(m.products) / m.seconds * 1e-9;
  }

  if (per_matrix) {
    std::printf("Figure 15: GFLOPS per matrix (ordered by products)\n\n");
    std::vector<std::pair<offset_t, std::string>> order;
    for (const auto& entry : corpus) order.emplace_back(entry.products(), entry.name);
    std::sort(order.begin(), order.end());
    print_row({"matrix", "products", "cu", "ac", "nsp", "rm", "bh", "cusp", "speck",
               "kk", "mkl"},
              {24, 10, 7, 7, 7, 7, 7, 7, 7, 7, 7});
    for (const auto& [products, matrix] : order) {
      std::vector<std::string> cells{matrix, std::to_string(products)};
      for (const auto& algorithm : algorithms) {
        double gflops = 0.0;
        for (const Measurement& m : measurements) {
          if (m.matrix == matrix && m.algorithm == algorithm->name()) gflops = m.gflops;
        }
        cells.push_back(format_double(gflops, 2));
      }
      print_row(cells, {24, 10, 7, 7, 7, 7, 7, 7, 7, 7, 7});
    }
    return 0;
  }

  // Bucket by log10(products): the trend plot's x-axis.
  std::printf("Figure 6: GFLOPS trend over product count (geometric mean per "
              "bucket)\n\n");
  std::map<int, std::map<std::string, std::vector<double>>> buckets;
  for (const Measurement& m : measurements) {
    if (m.gflops <= 0.0) continue;
    const int bucket = static_cast<int>(std::floor(
        std::log10(std::max<double>(static_cast<double>(m.products), 10.0)) * 2.0));
    buckets[bucket][m.algorithm].push_back(m.gflops);
  }
  std::vector<std::string> header{"products>="};
  for (const auto& algorithm : algorithms) header.push_back(algorithm->name());
  const std::vector<int> widths{11, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  print_row(header, widths);
  for (const auto& [bucket, per_algo] : buckets) {
    const double lo = std::pow(10.0, bucket / 2.0);
    std::vector<std::string> cells{format_double(lo, 0)};
    for (const auto& algorithm : algorithms) {
      const auto it = per_algo.find(algorithm->name());
      if (it == per_algo.end() || it->second.empty()) {
        cells.push_back("-");
      } else {
        cells.push_back(format_double(geometric_mean(it->second), 2));
      }
    }
    print_row(cells, widths);
  }
  // Terminal rendering of the trend for the four most telling series.
  {
    std::vector<std::string> names{"speck", "ac", "nsparse", "mkl"};
    std::vector<std::vector<double>> series(names.size());
    for (const auto& [bucket, per_algo] : buckets) {
      for (std::size_t si = 0; si < names.size(); ++si) {
        const auto it = per_algo.find(names[si]);
        series[si].push_back(it == per_algo.end() || it->second.empty()
                                 ? 0.0
                                 : geometric_mean(it->second));
      }
    }
    std::printf("\nGFLOPS trend (log scale, x = product bucket):\n%s",
                ascii_chart(names, series).c_str());
  }

  std::printf("\nCrossover check (paper: GPU beats MKL above ~15k products):\n");
  for (const auto& [bucket, per_algo] : buckets) {
    const auto speck_it = per_algo.find("speck");
    const auto mkl_it = per_algo.find("mkl");
    if (speck_it == per_algo.end() || mkl_it == per_algo.end()) continue;
    const double speck_mean = geometric_mean(speck_it->second);
    const double mkl_mean = geometric_mean(mkl_it->second);
    std::printf("  products >= %-10.0f speck/mkl = %.2f\n", std::pow(10.0, bucket / 2.0),
                speck_mean / mkl_mean);
  }
  return 0;
}
