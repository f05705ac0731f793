// Internal helpers shared by the symbolic and numeric pass translation
// units. Not part of the public API.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/alloc_counter.h"
#include "common/bit_utils.h"
#include "common/check.h"
#include "speck/hash_acc.h"
#include "speck/kernels.h"
#include "speck/local_lb.h"
#include "speck/workspace.h"

namespace speck::detail {

/// Blocks per parallel chunk in the symbolic/numeric passes. Fixed — never
/// derived from the thread count — so the chunk boundaries (and with them
/// every per-block result slot) are identical at any parallelism level.
constexpr std::size_t kBlockChunk = 4;

/// Merges the per-block counters of `from` into the pass totals. Seconds
/// and pool bytes are launch-level quantities and are accumulated elsewhere.
inline void merge_pass_counters(PassStats& into, const PassStats& from) {
  into.direct_rows += from.direct_rows;
  into.dense_rows += from.dense_rows;
  into.hash_rows += from.hash_rows;
  into.global_hash_blocks += from.global_hash_blocks;
  into.hash_probes += from.hash_probes;
  into.moved_entries += from.moved_entries;
  into.global_inserts += from.global_inserts;
  into.hot_path_allocs += from.hot_path_allocs;
  into.estimate_underflow_rows += from.estimate_underflow_rows;
}

/// Groups the plan's blocks by kernel configuration in one sweep (the passes
/// used to rescan plan.blocks once per configuration — O(configs x blocks)).
/// Plan order is preserved within each group, which is what keeps the
/// serial cost-commit order — and thus the simulated seconds — unchanged.
inline std::vector<std::vector<const BinPlan::Block*>> blocks_by_config(
    const BinPlan& plan, std::size_t configs) {
  std::vector<std::vector<const BinPlan::Block*>> grouped(configs);
  for (const BinPlan::Block& block : plan.blocks) {
    const auto c = static_cast<std::size_t>(block.config);
    SPECK_ASSERT(c < configs, "block config index out of range");
    grouped[c].push_back(&block);
  }
  return grouped;
}

/// Row statistics for the local load balancer, gathered from the analysis.
inline BlockRowStats block_stats(const KernelContext& ctx, std::span<const index_t> rows) {
  BlockRowStats s;
  for (const index_t r : rows) {
    s.nnz_a += ctx.a->row_length(r);
    s.products += ctx.analysis->products[static_cast<std::size_t>(r)];
    s.max_b_row_len =
        std::max(s.max_b_row_len, ctx.analysis->longest_b_row[static_cast<std::size_t>(r)]);
  }
  return s;
}

/// Charges the cost of sweeping the referenced B rows with groups of g
/// threads (shared by the symbolic and numeric hash paths). Scratch buffers
/// come from the worker's workspace, so the sweep is allocation-free after
/// warm-up.
///
/// Compute is charged per *reference* (idle lanes included), but memory is
/// charged per *unique* referenced row of B: spECK's binning keeps
/// neighbouring rows of A in the same block, so their (overlapping, nearby)
/// B rows hit in L1/L2 after the first fetch. This locality is exactly what
/// the paper's ordered binning preserves (§4.2 "Binning").
inline void charge_row_sweep(sim::BlockCost& cost, const KernelContext& ctx,
                      std::span<const index_t> rows, int group_size, bool numeric,
                      KernelWorkspace& ws) {
  // Compute cost: the block's k groups take successive references in order
  // (Fig. 1); the block runs until its *slowest* group finishes, so idle
  // groups (too few references) and oversubscribed groups (g too small for
  // a long row) both show up as lockstep iterations — the effect Fig. 13
  // measures. Weight 10: address calculation, bounds check, compound-key
  // build, hash multiply/modulo and the probe-loop issue per visited
  // element and lane (collision-dependent probe *traffic* is charged
  // separately via smem_atomic).
  const int groups = std::max(1, cost.threads() / group_size);
  std::vector<std::size_t>& group_iterations = ws.group_iterations();
  group_iterations.assign(static_cast<std::size_t>(groups), 0);
  std::size_t next_group = 0;

  std::vector<index_t>& referenced = ws.referenced_rows();
  referenced.clear();
  for (const index_t r : rows) {
    const auto a_cols = ctx.a->row_cols(r);
    for (const index_t k : a_cols) {
      const auto len = static_cast<std::size_t>(ctx.b->row_length(k));
      if (len == 0) continue;
      group_iterations[next_group] +=
          ceil_div<std::size_t>(len, static_cast<std::size_t>(group_size));
      next_group = next_group + 1 == static_cast<std::size_t>(groups) ? 0 : next_group + 1;
      referenced.push_back(k);
    }
    cost.global_coalesced(a_cols.size());                  // A columns
    if (numeric) cost.global_coalesced64(a_cols.size());   // A values
  }
  const std::size_t critical_iterations =
      *std::max_element(group_iterations.begin(), group_iterations.end());
  cost.lockstep(static_cast<double>(critical_iterations), 10.0);

  // Memory cost: every unique referenced row of B is fetched once per block
  // (spECK's ordered binning keeps neighbouring rows of A together, so their
  // overlapping B rows hit in L1/L2 after the first fetch, §4.2 "Binning").
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  std::size_t words = 0;
  for (const index_t k : referenced) {
    words += static_cast<std::size_t>(ctx.b->row_length(k));
  }
  const double cache = sim::reuse_cache_factor(*ctx.device, ctx.b->byte_size());
  cost.global_segmented(words * (ctx.wide_keys ? 2 : 1), referenced.size(), cache);
  if (numeric) cost.global_segmented(words * 2, referenced.size(), cache);
}

/// Charges hash accumulator activity common to both passes.
template <typename Accumulator>
void charge_hash_activity(sim::BlockCost& cost, const Accumulator& acc,
                          PassStats& stats) {
  cost.smem_atomic(static_cast<double>(acc.probes()));
  stats.hash_probes += acc.probes();
  if (acc.spilled()) {
    ++stats.global_hash_blocks;
    stats.moved_entries += acc.moved_entries();
    stats.global_inserts += acc.global_inserts();
    cost.global_atomic(static_cast<double>(acc.moved_entries()));
    cost.global_atomic(1.5 * static_cast<double>(acc.global_inserts()));
  }
}

/// Shared driver of both passes: runs every block of `plan`, grouped into
/// one simulated launch per kernel configuration. Blocks partition the rows,
/// so each block body writes disjoint output slots plus its own cost /
/// counter / payload slot; costs are committed to the launch (and counters
/// merged, and `commit` called) serially in plan order afterwards, which
/// keeps the simulated schedule — and thus `seconds` — identical to the
/// single-threaded run. Per-block heap allocations are accounted into the
/// block's PassStats (the zero-allocation hot-path metric).
///
/// With ctx.partitions > 1 the blocks of each launch run on the two-level
/// executor (ThreadPool::partitioned_for): the chunk space is cut into
/// product-balanced partitions, each partition's team drains it through its
/// own cursor with partition-local workspaces, and finished teams steal
/// chunks from the most-loaded remaining partition (docs/performance.md
/// "NUMA scale-out"). Chunk boundaries and all output slots stay pure
/// functions of the block list, so results are bit-identical to the flat
/// path; only ctx.partition_diag observes the schedule.
///
/// `run_block(launch, config, config_index, rows, counters, payload, ws)`
/// returns the block's sim::BlockCost; `commit(payload)` runs serially per
/// block (pass Payload = std::monostate and a no-op when not needed).
template <typename Payload, typename RunBlock, typename Commit>
void execute_block_plan(const KernelContext& ctx, const BinPlan& plan,
                        const char* launch_prefix, PassStats& pass_stats,
                        RunBlock&& run_block, Commit&& commit) {
  ThreadPool& pool = pool_or_global(ctx.pool);
  const int parts = std::max(1, ctx.partitions);
  const bool partitioned = parts > 1;

  WorkspacePool local_workspaces;
  WorkspacePool* workspaces = nullptr;
  PartitionWorkspaces local_team_workspaces;
  PartitionWorkspaces* team_workspaces = nullptr;
  if (partitioned) {
    team_workspaces = ctx.team_workspaces != nullptr ? ctx.team_workspaces
                                                     : &local_team_workspaces;
    int slots = 1;
    for (int t = 0; t < parts; ++t) {
      slots = std::max(slots,
                       partition_team_lanes(t, pool.thread_count(), parts));
    }
    team_workspaces->ensure(parts, slots);
  } else {
    workspaces = ctx.workspaces != nullptr ? ctx.workspaces : &local_workspaces;
    workspaces->ensure(pool.thread_count());
  }

  const auto grouped = blocks_by_config(plan, ctx.configs->size());
  for (std::size_t c = 0; c < ctx.configs->size(); ++c) {
    const KernelConfig& config = (*ctx.configs)[c];
    const std::vector<const BinPlan::Block*>& blocks = grouped[c];
    if (blocks.empty()) continue;
    sim::Launch launch(std::string(launch_prefix) + std::to_string(config.threads),
                       *ctx.device, *ctx.model);

    std::vector<std::optional<sim::BlockCost>> costs(blocks.size());
    std::vector<PassStats> block_counters(blocks.size());
    std::vector<Payload> payloads(blocks.size());
    const auto run_range = [&](std::size_t begin, std::size_t end,
                               KernelWorkspace& ws) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::span<const index_t> rows(
            plan.row_order.data() + blocks[i]->begin,
            blocks[i]->end - blocks[i]->begin);
        const std::size_t allocs_before = alloc_events_now();
        costs[i] = run_block(launch, config, static_cast<int>(c), rows,
                             block_counters[i], payloads[i], ws);
        block_counters[i].hot_path_allocs += alloc_events_now() - allocs_before;
      }
    };
    if (!partitioned) {
      pool.parallel_for(blocks.size(), kBlockChunk,
                        [&](std::size_t begin, std::size_t end, int worker) {
                          run_range(begin, end, workspaces->at(worker));
                        });
    } else {
      // Cut the chunk space along the same per-row product weights the
      // global load balancer bins by (+1 per block so zero-product blocks
      // still spread by count). Pure function of (plan, parts).
      const std::size_t total_chunks =
          (blocks.size() + kBlockChunk - 1) / kBlockChunk;
      std::vector<std::uint64_t> weights(total_chunks, 0);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        std::uint64_t w = 1;
        for (std::size_t r = blocks[i]->begin; r < blocks[i]->end; ++r) {
          w += static_cast<std::uint64_t>(
              ctx.analysis->products[static_cast<std::size_t>(
                  plan.row_order[r])]);
        }
        weights[i / kBlockChunk] += w;
      }
      const std::vector<std::size_t> bounds =
          partition_weights_balanced(weights, parts);
      PartitionedRunDiag run_diag;
      pool.partitioned_for(
          blocks.size(), kBlockChunk, bounds, ctx.partition_steal,
          [&](std::size_t begin, std::size_t end, int team, int slot) {
            run_range(begin, end, team_workspaces->team(team).at(slot));
          },
          ctx.partition_diag != nullptr ? &run_diag : nullptr);
      if (ctx.partition_diag != nullptr) ctx.partition_diag->merge(run_diag);
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      launch.add(*costs[i]);
      merge_pass_counters(pass_stats, block_counters[i]);
      commit(payloads[i]);
    }

    if (launch.block_count() > 0) {
      sim::LaunchResult finished = launch.finish();
      pass_stats.seconds += finished.seconds;
      if (ctx.trace != nullptr) ctx.trace->record(std::move(finished));
    }
  }
}

/// Size of the pre-allocated global hash map pool for rows that may not fit
/// the largest scratchpad map (paper §4.3 "Sparse Rows of C").
inline std::size_t global_pool_bytes(const KernelContext& ctx, const BinPlan& plan,
                              bool symbolic) {
  const KernelConfig& largest = ctx.configs->back();
  const auto capacity = static_cast<offset_t>(
      symbolic ? largest.symbolic_hash_capacity() : largest.numeric_hash_capacity());
  offset_t candidates = 0;
  offset_t worst = 0;
  for (const BinPlan::Block& block : plan.blocks) {
    if (block.config != static_cast<int>(ctx.configs->size()) - 1) continue;
    for (std::size_t i = block.begin; i < block.end; ++i) {
      const index_t row = plan.row_order[i];
      const offset_t products = ctx.analysis->products[static_cast<std::size_t>(row)];
      if (products > capacity) {
        ++candidates;
        worst = std::max(worst, products);
      }
    }
  }
  if (candidates == 0) return 0;
  const int concurrent = ctx.device->num_sms;  // one 96 KB block per SM
  const auto pool_maps = static_cast<std::size_t>(
      std::min<offset_t>(candidates, concurrent));
  const std::size_t entry_bytes =
      symbolic ? sizeof(key32_t) : sizeof(key32_t) + sizeof(value_t);
  return pool_maps * static_cast<std::size_t>(next_pow2(static_cast<std::uint64_t>(worst))) *
         entry_bytes;
}


}  // namespace speck::detail
