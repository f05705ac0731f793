// Ablation benchmark for Algorithm 2 (block merge): with merging disabled,
// every small row occupies its own under-filled block, wasting scratchpad
// and thread slots (paper §4.2 "Binning" / Fig. 3).
#include <cstdio>

#include "bench_common.h"
#include "gen/generators.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  std::printf("Ablation: Algorithm 2 block merge on/off (global LB forced on)\n\n");
  const std::vector<int> widths{24, 10, 10, 9, 13, 13};
  print_row({"matrix", "merge(ms)", "none(ms)", "speedup", "blocks(merge)",
             "blocks(none)"},
            widths);

  std::uint64_t seed = 7000;
  struct Workload {
    std::string name;
    Csr a;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"tiny rows d2", gen::random_uniform(40000, 40000, 2, ++seed)});
  workloads.push_back({"mesh 2d", gen::stencil_2d(220, 220)});
  workloads.push_back({"banded d4", gen::banded(40000, 50, 4, ++seed)});
  workloads.push_back({"skewed", gen::skewed_rows(20000, 20000, 0.01, 1024, 3, ++seed)});
  workloads.push_back({"medium d16", gen::random_uniform(8000, 8000, 16, ++seed)});

  for (const auto& workload : workloads) {
    double seconds[2] = {0, 0};
    int blocks[2] = {0, 0};
    for (int variant = 0; variant < 2; ++variant) {
      SpeckConfig config;
      config.thresholds = reduced_scale_thresholds();
      config.features.set_global_lb(GlobalLbMode::kAlwaysOn);
      config.features.block_merge = variant == 0;
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
      const SpGemmResult result = speck.multiply(workload.a, workload.a);
      SPECK_REQUIRE(result.ok(), "ablation run failed");
      seconds[variant] = result.seconds;
      blocks[variant] = speck.last_diagnostics().numeric_blocks;
    }
    print_row({workload.name, format_double(seconds[0] * 1e3, 3),
               format_double(seconds[1] * 1e3, 3),
               format_double(seconds[1] / seconds[0]),
               std::to_string(blocks[0]), std::to_string(blocks[1])},
              widths);
  }
  std::printf("\n(merging packs up to 32 small rows per block: fewer blocks,"
              " amortized extraction scans)\n");
  return 0;
}
