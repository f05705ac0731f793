// Regenerates Figure 10: peak device-memory consumption on the common
// matrices (hash-based methods vs. ESC/merge).
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

  std::printf("Figure 10: peak memory consumption in MB\n\n");
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
      for (const Measurement& m : measurements) {
        if (m.matrix != entry.name || m.algorithm != algorithm->name()) continue;
        cells.push_back(m.status == SpGemmStatus::kOk
                            ? format_bytes_mb(m.peak_memory_bytes)
                            : "fail");
      }
    }
    print_row(cells, widths);
  }
  return 0;
}
