// Regenerates Figure 7: the slowdown of every method relative to the
// per-matrix fastest, over all matrices with >15k products — summarized as
// percentiles plus the share of matrices slower than 5x (quoted in §6.1).
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "common/stats.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const auto corpus = gen::evaluation_collection();
  const auto algorithms = baselines::make_all_algorithms(
      sim::DeviceSpec::titan_v(), sim::CostModel{});
  const auto measurements = run_suite(corpus, algorithms);
  const auto best = best_seconds_per_matrix(measurements);

  std::map<std::string, std::vector<double>> slowdowns;
  std::map<std::string, int> failures;
  for (const Measurement& m : measurements) {
    if (m.products <= 15000) continue;
    if (m.status != SpGemmStatus::kOk) {
      ++failures[m.algorithm];
      continue;
    }
    slowdowns[m.algorithm].push_back(m.seconds / best.at(m.matrix));
  }

  std::printf("Figure 7: slowdown to fastest per matrix (>15k products)\n\n");
  const std::vector<int> widths{10, 8, 8, 8, 8, 8, 9, 7};
  print_row({"method", "p25", "median", "p75", "p95", "max", ">5x(%)", "#fail"},
            widths);
  for (const auto& algorithm : algorithms) {
    const auto it = slowdowns.find(algorithm->name());
    if (it == slowdowns.end() || it->second.empty()) continue;
    std::vector<double> values = it->second;
    const double over5 =
        100.0 *
        static_cast<double>(std::count_if(values.begin(), values.end(),
                                          [](double v) { return v > 5.0; })) /
        static_cast<double>(values.size());
    print_row({algorithm->name(), format_double(percentile(values, 25)),
               format_double(percentile(values, 50)),
               format_double(percentile(values, 75)),
               format_double(percentile(values, 95)),
               format_double(*std::max_element(values.begin(), values.end())),
               format_double(over5, 1),
               std::to_string(failures[algorithm->name()])},
              widths);
  }
  std::printf("\n(paper: speck 0.1%% over 5x; ac 3.8%%, nsparse 9.0%%, rmerge 36.9%%,"
              " cusparse 50.1%%, bhsparse 77.6%%, kokkos 89.3%%)\n");
  return 0;
}
