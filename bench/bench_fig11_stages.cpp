// Regenerates Figure 11: the share of each pipeline stage in spECK's
// execution time on the common matrices.
#include <cstdio>

#include "bench_common.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const auto corpus = gen::common_corpus();
  SpeckConfig config;
  config.thresholds = reduced_scale_thresholds();
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);

  std::printf("Figure 11: spECK stage shares (%% of total time)\n\n");
  const std::vector<int> widths{14, 10, 11, 13, 10, 12, 9};
  print_row({"matrix", "analytics", "symb. load", "symb. SpGEMM", "num. load",
             "num. SpGEMM", "sorting"},
            widths);
  for (const auto& entry : corpus) {
    const SpGemmResult result = speck.multiply(entry.a, entry.b);
    if (!result.ok()) {
      std::printf(" %-14s failed: %s\n", entry.name.c_str(),
                  result.failure_reason.c_str());
      continue;
    }
    const auto share = [&](sim::Stage stage) {
      return format_double(100.0 * result.timeline.share(stage), 1);
    };
    print_row({entry.name, share(sim::Stage::kAnalysis),
               share(sim::Stage::kSymbolicLoadBalance), share(sim::Stage::kSymbolic),
               share(sim::Stage::kNumericLoadBalance), share(sim::Stage::kNumeric),
               share(sim::Stage::kSorting)},
              widths);
  }
  std::printf("\n(paper: numeric SpGEMM dominates; analysis <10%% in most cases;"
              " sorting up to 40%%)\n");
  return 0;
}
