// Extension: device-generation sensitivity. The paper's artifact (Appendix
// A.1) configures per-device scratchpad limits: Volta's 96 KB opt-in yields
// six kernel configurations, pre-Volta devices five. This benchmark runs the
// common corpus on both device models and reports spECK's adaptation.
#include <cstdio>

#include "bench_common.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const sim::DeviceSpec volta = sim::DeviceSpec::titan_v();
  const sim::DeviceSpec pascal = sim::DeviceSpec::pascal_like();
  const sim::CostModel model;

  std::printf("spECK across device generations (volta: %zu configs, pascal: %zu)\n\n",
              kernel_configs(volta).size(), kernel_configs(pascal).size());
  const std::vector<int> widths{14, 13, 13, 14, 14};
  print_row({"matrix", "volta GFLOPS", "pascal GFLOPS", "volta dense", "pascal dense"},
            widths);
  for (const auto& entry : gen::common_corpus()) {
    const offset_t products = entry.products();
    double gflops[2] = {0, 0};
    offset_t dense_rows[2] = {0, 0};
    int variant = 0;
    for (const sim::DeviceSpec& device : {volta, pascal}) {
      SpeckConfig config;
      config.thresholds = reduced_scale_thresholds();
      Speck speck(device, model, config);
      const SpGemmResult result = speck.multiply(entry.a, entry.b);
      SPECK_REQUIRE(result.ok(), "device run failed");
      gflops[variant] = result.gflops(products);
      dense_rows[variant] = speck.last_diagnostics().numeric.dense_rows;
      ++variant;
    }
    print_row({entry.name, format_double(gflops[0], 2), format_double(gflops[1], 2),
               std::to_string(dense_rows[0]), std::to_string(dense_rows[1])},
              widths);
  }
  std::printf("\n(the smaller Pascal-class device loses the 96 KB configuration:"
              " fewer SMs and smaller hash maps, same decisions otherwise)\n");
  return 0;
}
