// Extension benchmark (paper §7 future work): multi-GPU scaling with
// replicated vs shared (row-partitioned) B storage.
#include <cstdio>

#include "bench_common.h"
#include "gen/generators.h"
#include "matrix/matrix_stats.h"
#include "speck/multi_gpu.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  struct Workload {
    const char* name;
    Csr a;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"banded (local refs)", gen::banded(60000, 500, 16, 301)});
  workloads.push_back({"uniform (remote refs)", gen::random_uniform(30000, 30000, 16, 303)});

  std::printf("Multi-GPU spECK scaling (extension; simulated)\n\n");
  const std::vector<int> widths{22, 6, 12, 12, 10, 9};
  print_row({"matrix", "gpus", "replicated", "shared B", "remote%", "eff."},
            widths);
  for (const auto& workload : workloads) {
    for (const int gpus : {1, 2, 4, 8}) {
      MultiGpuConfig replicated;
      replicated.gpus = gpus;
      replicated.replicate_b = true;
      MultiGpuSpeck rep(sim::DeviceSpec::titan_v(), sim::CostModel{}, replicated);
      const SpGemmResult rep_result = rep.multiply(workload.a, workload.a);
      SPECK_REQUIRE(rep_result.ok(), "multigpu run failed");

      MultiGpuConfig shared = replicated;
      shared.replicate_b = false;
      MultiGpuSpeck shr(sim::DeviceSpec::titan_v(), sim::CostModel{}, shared);
      const SpGemmResult shr_result = shr.multiply(workload.a, workload.a);
      SPECK_REQUIRE(shr_result.ok(), "multigpu run failed");

      print_row({workload.name, std::to_string(gpus),
                 format_double(rep_result.seconds * 1e3, 3) + "ms",
                 format_double(shr_result.seconds * 1e3, 3) + "ms",
                 format_double(shr.last_diagnostics().remote_reference_fraction * 100.0, 1),
                 format_double(rep.last_diagnostics().parallel_efficiency, 2)},
                widths);
    }
  }
  std::printf("\n(banded matrices keep references on the owning device, so shared"
              " storage is nearly free;\n uniform matrices pay interconnect"
              " bandwidth for ~ (G-1)/G of their references)\n");
  return 0;
}
