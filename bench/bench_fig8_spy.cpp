// Regenerates Figure 8: non-zero patterns of the common matrices, rendered
// as ASCII spy plots.
#include <cstdio>

#include "bench_common.h"
#include "matrix/matrix_stats.h"

using namespace speck;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  for (const auto& entry : gen::common_corpus()) {
    std::printf("=== %s (%s) ===\n", entry.name.c_str(),
                entry.a.shape_string().c_str());
    std::printf("%s\n", ascii_spy(entry.a, 32).c_str());
  }
  return 0;
}
