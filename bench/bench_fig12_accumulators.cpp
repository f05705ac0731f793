// Regenerates Figure 12: hash-only vs. +dense accumulation vs. +direct
// referencing, over matrices ordered by the maximum NNZ per row of C.
// The paper reports up to 60% gains from dense accumulation (sort
// avoidance) and up to 40x for rows exceeding the largest scratchpad map
// (global-memory hash avoidance, e.g. matrix 208bit).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "gen/generators.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

namespace {

/// Workload with growing maximum output-row length: skewed matrices whose
/// heavy rows produce ever longer C rows, plus single-entry-row matrices
/// for the direct path.
std::vector<gen::CorpusEntry> workload() {
  std::vector<gen::CorpusEntry> entries;
  std::uint64_t seed = 5000;
  for (const index_t heavy : {512, 1024, 2048, 4096, 8192, 16384}) {
    gen::CorpusEntry e;
    e.name = "maxrow_" + std::to_string(heavy);
    e.a = gen::skewed_rows(4000, 40000, 0.004, heavy, 4, ++seed);
    // Make the matrix square-multipliable: widen to 40000 rows.
    e.a = gen::skewed_rows(40000, 40000, 0.0004, heavy, 3, ++seed);
    e.b = e.a;
    entries.push_back(std::move(e));
  }
  for (const double single : {0.95, 0.6}) {
    gen::CorpusEntry e;
    e.name = "single_" + std::to_string(static_cast<int>(single * 100));
    e.a = gen::single_entry_mix(30000, 30000, single, 12, ++seed);
    e.b = e.a;
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const auto entries = workload();
  const sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  const sim::CostModel model;

  struct Variant {
    const char* name;
    bool dense;
    bool direct;
  };
  const Variant variants[] = {{"hash", false, false},
                              {"hash+dense", true, false},
                              {"hash+dense+direct", true, true}};

  std::printf("Figure 12: accumulator ablation (slowdown to fastest variant)\n\n");
  const std::vector<int> widths{16, 12, 10, 13, 19};
  print_row({"matrix", "maxNNZ(C)", "hash", "hash+dense", "hash+dense+direct"},
            widths);
  for (const auto& entry : entries) {
    const auto c_row_nnz = gustavson_symbolic(entry.a, entry.b);
    const index_t max_c =
        *std::max_element(c_row_nnz.begin(), c_row_nnz.end());
    double seconds[3] = {0, 0, 0};
    for (int v = 0; v < 3; ++v) {
      SpeckConfig config;
      config.thresholds = reduced_scale_thresholds();
      Speck speck(device, model, config);
      speck.config().features.dense_accumulation = variants[v].dense;
      speck.config().features.direct_rows = variants[v].direct;
      const SpGemmResult result = speck.multiply(entry.a, entry.b);
      SPECK_REQUIRE(result.ok(), "ablation run failed");
      seconds[v] = result.seconds;
    }
    const double best = std::min({seconds[0], seconds[1], seconds[2]});
    print_row({entry.name, std::to_string(max_c),
               format_double(seconds[0] / best), format_double(seconds[1] / best),
               format_double(seconds[2] / best)},
              widths);
  }
  std::printf("\n(paper: dense accumulation gains grow with the longest row;"
              " direct referencing helps single-entry-row matrices)\n");
  return 0;
}
