// Regenerates Figure 9: GFLOPS achieved by every method on the common
// matrices.
#include <cstdio>

#include "bench_common.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const auto corpus = gen::common_corpus();
  const auto algorithms = baselines::make_gpu_algorithms(
      sim::DeviceSpec::titan_v(), sim::CostModel{});
  const auto measurements = run_suite(corpus, algorithms);

  std::printf("Figure 9: GFLOPS on the common matrices\n\n");
  std::vector<int> widths{14};
  std::vector<std::string> header{"matrix"};
  for (const auto& algorithm : algorithms) {
    header.push_back(algorithm->name());
    widths.push_back(9);
  }
  print_row(header, widths);
  for (const auto& entry : corpus) {
    std::vector<std::string> cells{entry.name};
    for (const auto& algorithm : algorithms) {
      bool found = false;
      for (const Measurement& m : measurements) {
        if (m.matrix != entry.name || m.algorithm != algorithm->name()) continue;
        cells.push_back(m.status == SpGemmStatus::kOk ? format_double(m.gflops, 2)
                                                      : "fail");
        found = true;
      }
      if (!found) cells.push_back("-");
    }
    print_row(cells, widths);
  }

  // Paper's qualitative claim: spECK is best or close to best everywhere.
  const auto best = best_seconds_per_matrix(measurements);
  std::printf("\nspECK slowdown to fastest per matrix:\n");
  for (const Measurement& m : measurements) {
    if (m.algorithm != "speck" || m.status != SpGemmStatus::kOk) continue;
    std::printf("  %-14s %.2fx\n", m.matrix.c_str(), m.seconds / best.at(m.matrix));
  }
  return 0;
}
