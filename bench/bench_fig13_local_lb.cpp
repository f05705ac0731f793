// Regenerates Figure 13: dynamic selection of g (threads per row of B)
// versus the fixed g=32 nsparse uses, over matrices ordered by the average
// NNZ per row of C. The paper shows up to 8x speedups away from the
// g=32 sweet spot (~300 NZ per output row).
#include <cstdio>

#include "bench_common.h"
#include "gen/generators.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  const sim::CostModel model;

  std::printf("Figure 13: dynamic local load balancing vs fixed g=32\n\n");
  const std::vector<int> widths{20, 12, 10, 10, 9};
  print_row({"matrix", "avgNNZ(C)", "dynamic", "fixed32", "speedup"}, widths);

  std::uint64_t seed = 6000;
  const auto run_pair = [&](const std::string& name, const Csr& a, const Csr& b) {
    const auto c_row_nnz = gustavson_symbolic(a, b);
    offset_t c_nnz = 0;
    for (const index_t nnz : c_row_nnz) c_nnz += nnz;
    double seconds[2] = {0, 0};
    for (int variant = 0; variant < 2; ++variant) {
      SpeckConfig config;
      config.thresholds = reduced_scale_thresholds();
      Speck speck(device, model, config);
      speck.config().features.dynamic_group_size = variant == 0;
      const SpGemmResult result = speck.multiply(a, b);
      SPECK_REQUIRE(result.ok(), "fig13 run failed");
      seconds[variant] = result.seconds;
    }
    print_row({name, format_double(static_cast<double>(c_nnz) / a.rows(), 1),
               format_double(seconds[0] * 1e3, 3), format_double(seconds[1] * 1e3, 3),
               format_double(seconds[1] / seconds[0])},
              widths);
  };

  // Left of the sweet spot: short rows of B, where g=32 leaves most lanes
  // idle. Then through the sweet spot with uniform matrices.
  for (const index_t deg : {1, 2, 4, 8, 16, 32, 64}) {
    const index_t rows = std::max<index_t>(2000, 200000 / (deg * deg));
    const Csr a = gen::random_uniform(rows, rows, deg, ++seed);
    run_pair("uniform_d" + std::to_string(deg), a, a);
  }
  // Right of the sweet spot: rows of A with few references to *long* rows
  // of B — fixed g=32 activates only nnz_a groups per block and leaves the
  // rest of the block idle while each group crawls through thousands of
  // elements (rectangular C = A*B, B rows of growing length).
  for (const index_t b_row_len : {400, 1200, 3200}) {
    const index_t inner = 256;
    const Csr a = gen::random_uniform(1500, inner, 4, ++seed);
    const Csr b = gen::random_uniform(inner, 100000, b_row_len, ++seed);
    run_pair("fatB_L" + std::to_string(b_row_len), a, b);
  }
  std::printf("\n(paper: fixed g=32 is competitive only near ~300 NZ/row of C;"
              " dynamic g wins on both ends, up to 8x)\n");
  return 0;
}
