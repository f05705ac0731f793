// The kernel context a traced run hands to the stage functions of
// speck/*.h, built from a Speck instance's public state exactly as the
// instance builds it for its own multiplies.
#pragma once

#include "speck/speck.h"

namespace speckbench {

inline speck::KernelContext kernel_context(speck::Speck& speck,
                                           const speck::Csr& a,
                                           const speck::Csr& b) {
  speck::KernelContext ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.cfg = &speck.config();
  ctx.configs = &speck.configs();
  ctx.device = &speck.device();
  ctx.model = &speck.cost_model();
  ctx.wide_keys = b.cols() > speck::kMaxColumns32Bit;
  ctx.pool = speck.host_pool();
  ctx.workspaces = &speck.workspaces();
  ctx.simd = speck::simd::resolve_backend(speck.config().simd_backend);
  ctx.partitions = speck::resolve_partitions(speck.config().partitions);
  ctx.partition_steal = speck.config().partition_steal;
  return ctx;
}

/// Numeric binning demand per row: the exact (or masked) row size inflated
/// by the hash fill limit, as the pipeline computes it.
template <typename RowSizes>
std::vector<speck::offset_t> numeric_entries(const RowSizes& row_sizes,
                                             double max_fill) {
  std::vector<speck::offset_t> entries(row_sizes.size());
  for (std::size_t r = 0; r < row_sizes.size(); ++r) {
    entries[r] = static_cast<speck::offset_t>(
        static_cast<double>(row_sizes[r]) / max_fill + 1.0);
  }
  return entries;
}

}  // namespace speckbench
