// Extension: row-wise vs column-driven (outer-product) SpGEMM across
// compaction factors. Outer-product formulations touch every intermediate
// product twice (expand + merge), so they fall behind row-wise hashing as
// compaction grows — the same argument the paper makes against global ESC,
// amplified.
#include <cstdio>

#include "baselines/esc_cusp.h"
#include "baselines/outer_product.h"
#include "bench_common.h"
#include "gen/generators.h"
#include "matrix/matrix_stats.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  const sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  const sim::CostModel model;
  SpeckConfig config;
  config.thresholds = reduced_scale_thresholds();
  Speck speck(device, model, config);
  baselines::OuterProduct outer(device, model);
  baselines::EscCusp cusp(device, model);

  std::printf("Row-wise vs column-driven SpGEMM across compaction (extension)\n\n");
  const std::vector<int> widths{20, 11, 11, 11, 11, 12};
  print_row({"matrix", "compaction", "speck(ms)", "outer(ms)", "cusp(ms)",
             "outer mem(MB)"},
            widths);

  std::uint64_t seed = 8100;
  struct Workload {
    std::string name;
    Csr a;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"uniform d4 (low)", gen::random_uniform(20000, 20000, 4, ++seed)});
  workloads.push_back({"grid2d (med)", gen::stencil_2d(150, 150)});
  workloads.push_back({"denseband (high)", gen::banded(8000, 24, 32, ++seed)});
  workloads.push_back({"blockdiag (extreme)", gen::block_diagonal(8, 100, 0.9, ++seed)});

  for (const auto& workload : workloads) {
    const offset_t products = count_products(workload.a, workload.a);
    const auto c_nnz = [&] {
      offset_t total = 0;
      for (const index_t nnz : gustavson_symbolic(workload.a, workload.a)) total += nnz;
      return total;
    }();
    const SpGemmResult speck_result = speck.multiply(workload.a, workload.a);
    const SpGemmResult outer_result = outer.multiply(workload.a, workload.a);
    const SpGemmResult cusp_result = cusp.multiply(workload.a, workload.a);
    SPECK_REQUIRE(speck_result.ok() && outer_result.ok() && cusp_result.ok(),
                  "extension run failed");
    print_row({workload.name,
               format_double(static_cast<double>(products) /
                             static_cast<double>(std::max<offset_t>(c_nnz, 1))),
               format_double(speck_result.seconds * 1e3, 3),
               format_double(outer_result.seconds * 1e3, 3),
               format_double(cusp_result.seconds * 1e3, 3),
               format_bytes_mb(outer_result.peak_memory_bytes)},
              widths);
  }
  std::printf("\n(row-wise hashing pulls away as compaction grows; the outer"
              " formulation pays expand+sort on every product regardless)\n");
  return 0;
}
