// Regenerates Table 4: statistics of the common-matrix corpus (rows,
// columns, NNZ of A, intermediate products, NNZ of C).
#include <cstdio>

#include "bench_common.h"
#include "matrix/matrix_stats.h"
#include "ref/gustavson.h"

using namespace speck;
using namespace speck::bench;

int main(int argc, char** argv) {
  if (bench::apply_report_args(argc, argv) == 0) return 2;
  std::printf("Table 4: common-matrix corpus statistics\n");
  std::printf("(synthetic stand-ins; paper values are the full-scale originals)\n\n");
  const std::vector<int> widths{14, 9, 9, 10, 12, 10, 11};
  print_row({"matrix", "rows", "cols", "nnz(A)", "products", "nnz(C)", "compaction"},
            widths);
  for (const auto& entry : gen::common_corpus()) {
    const offset_t products = entry.products();
    const auto c_row_nnz = gustavson_symbolic(entry.a, entry.b);
    offset_t c_nnz = 0;
    for (const index_t nnz : c_row_nnz) c_nnz += nnz;
    print_row({entry.name, std::to_string(entry.a.rows()),
               std::to_string(entry.a.cols()), std::to_string(entry.a.nnz()),
               std::to_string(products), std::to_string(c_nnz),
               format_double(static_cast<double>(products) /
                             static_cast<double>(std::max<offset_t>(c_nnz, 1)))},
              widths);
  }
  return 0;
}
