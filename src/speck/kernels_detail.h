// Internal helpers shared by the pass, row-analysis and replay-build translation
// units. Not part of the public API.
#pragma once

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/alloc_counter.h"
#include "common/bit_utils.h"
#include "common/check.h"
#include "common/prefix_sum.h"
#include "speck/hash_acc.h"
#include "speck/kernels.h"
#include "speck/local_lb.h"
#include "speck/workspace.h"

namespace speck::detail {

/// Blocks per parallel chunk in the symbolic/numeric passes. Fixed — never
/// derived from the thread count — so the chunk boundaries (and with them
/// every per-block result slot) are identical at any parallelism level.
constexpr std::size_t kBlockChunk = 4;

/// Rows per parallel chunk of the row-parallel loops (row analysis and
/// estimation, staged compaction, replay). Fixed for the same reason as
/// kBlockChunk.
constexpr std::size_t kRowChunk = 256;

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

  // Memory cost: every unique referenced row of B is fetched once per block.
  // A row counts on its first reference in the block, found by stamping it
  // with the block's round (next_stamp).
  std::vector<std::uint32_t>& stamps = ws.sweep_stamps();
  const std::uint32_t stamp = next_stamp(stamps, ws.sweep_stamp_counter(),
                                         static_cast<std::size_t>(ctx.b->rows()));
  std::size_t unique_rows = 0;
  std::size_t words = 0;
  for (const index_t r : rows) {
    const auto a_cols = ctx.a->row_cols(r);
    for (const index_t k : a_cols) {
      const auto len = static_cast<std::size_t>(ctx.b->row_length(k));
      if (len == 0) continue;
      group_iterations[next_group] +=
          ceil_div<std::size_t>(len, static_cast<std::size_t>(group_size));
      next_group = next_group + 1 == static_cast<std::size_t>(groups) ? 0 : next_group + 1;
      std::uint32_t& seen = stamps[static_cast<std::size_t>(k)];
      if (seen != stamp) {
        seen = stamp;
        ++unique_rows;
        words += len;
      }
    }
    cost.global_coalesced(a_cols.size());                  // A columns
    if (numeric) cost.global_coalesced64(a_cols.size());   // A values
  }
  const std::size_t critical_iterations =
      *std::max_element(group_iterations.begin(), group_iterations.end());
  cost.lockstep(static_cast<double>(critical_iterations), 10.0);

  const double cache = sim::reuse_cache_factor(*ctx.device, ctx.b->byte_size());
  cost.global_segmented(words * (ctx.wide_keys ? 2 : 1), unique_rows, cache);
  if (numeric) cost.global_segmented(words * 2, unique_rows, cache);
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

/// Accumulator method per row, re-deriving run_numeric_block's block-level
/// selection from `row_sizes` (the per-row sizes numeric binning ran off):
/// a block is all-direct only when every row qualifies; otherwise
/// single-row blocks may go dense and everything else hashes. The staged
/// passes and the replay start bits must all agree on this — the method
/// decides a row's traversal and, unmasked, its assign/accumulate semantics.
inline std::vector<RowMethod> row_methods(const KernelContext& ctx, const BinPlan& plan,
                                          std::span<const index_t> row_sizes) {
  std::vector<RowMethod> methods(static_cast<std::size_t>(ctx.a->rows()),
                                 RowMethod::kHash);
  for (const BinPlan::Block& block : plan.blocks) {
    const std::span<const index_t> block_rows(plan.row_order.data() + block.begin,
                                              block.end - block.begin);
    if (block_rows.empty()) continue;
    bool all_direct = ctx.cfg->features.direct_rows;
    for (const index_t r : block_rows) {
      all_direct = all_direct && ctx.a->row_length(r) == 1;
    }
    if (all_direct) {
      for (const index_t r : block_rows) {
        methods[static_cast<std::size_t>(r)] = RowMethod::kDirect;
      }
    } else if (block_rows.size() == 1) {
      // A direct singleton would have made the block all-direct above; the
      // numeric pass routes any other non-dense choice through hashing.
      const index_t r = block_rows.front();
      if (choose_numeric_method(ctx, r, row_sizes[static_cast<std::size_t>(r)],
                                /*merged_block=*/false,
                                block.config) == RowMethod::kDense) {
        methods[static_cast<std::size_t>(r)] = RowMethod::kDense;
      }
    }
  }
  return methods;
}

/// The upper-bound result allocation of the numeric passes that run without
/// a symbolic pass (estimated and masked): every row is staged into a slot
/// sized by its cap (an NNZ estimate or the mask bound), the actual row
/// sizes give the exact offsets, and the rows are compacted there.
///
/// Three steps vary per pass:
///  - `stage_row(config, r, method, cap, cols, vals, ws, cost, counters,
///    tally)` merges row r into its slot, storing at most `cap` entries,
///    and returns the row's actual NNZ (which may exceed `cap`); it adds the
///    block's cost observables to `tally`.
///  - `charge_block(cost, tally)` charges those after the shared row sweep.
///  - `refit(rows, methods, out)` is the overflow rule: it gets every row
///    whose actual NNZ exceeded its cap (counted in
///    PassStats::estimate_underflow_rows and left out of compaction) and
///    must write it into its exact, still unwritten slot of out.c. It only
///    runs when such rows exist.
template <typename Tally, typename StageRow, typename ChargeBlock, typename Refit>
NumericOutcome run_staged_pass(const KernelContext& ctx, const BinPlan& plan,
                               std::span<const index_t> caps,
                               const char* launch_prefix, StageRow&& stage_row,
                               ChargeBlock&& charge_block, Refit&& refit) {
  NumericOutcome out;
  const auto rows = static_cast<std::size_t>(ctx.a->rows());
  out.row_nnz.assign(rows, 0);

  // Staging: one cap-sized slot per row. The scratch persists across calls
  // and only ever grows: every staging element is written before it is
  // read, so re-zeroing megabytes of slots on each call would hand back a
  // chunk of what skipping the symbolic pass saves.
  thread_local std::vector<offset_t> staging_offsets;
  thread_local std::vector<index_t> staging_cols;
  thread_local std::vector<value_t> staging_vals;
  if (staging_offsets.size() < rows + 1) staging_offsets.resize(rows + 1);
  staging_offsets[0] = 0;
  std::copy(caps.begin(), caps.end(), staging_offsets.begin() + 1);
  inclusive_prefix_sum(std::span<offset_t>(staging_offsets.data() + 1, rows));
  const auto staging_total = static_cast<std::size_t>(staging_offsets[rows]);
  if (staging_cols.size() < staging_total) staging_cols.resize(staging_total);
  if (staging_vals.size() < staging_total) staging_vals.resize(staging_total);
  // Snapshot raw pointers for the worker lambdas: naming a thread_local
  // inside them would resolve through each *worker's* TLS (empty vectors),
  // not the coordinating thread's scratch.
  const offset_t* const slot_start = staging_offsets.data();
  index_t* const slot_cols = staging_cols.data();
  value_t* const slot_vals = staging_vals.data();

  const std::vector<RowMethod> methods = row_methods(ctx, plan, caps);
  execute_block_plan<std::monostate>(
      ctx, plan, launch_prefix, out.stats,
      [&](const sim::Launch& launch, const KernelConfig& config,
          int /*config_index*/, std::span<const index_t> block_rows,
          PassStats& counters, std::monostate& /*payload*/, KernelWorkspace& ws) {
        auto cost = launch.make_block(config.threads, config.scratchpad_bytes);
        const LocalLbDecision lb = choose_group_size(
            config.threads, block_stats(ctx, block_rows), ctx.cfg->features);
        Tally tally;
        for (const index_t r : block_rows) {
          const auto ri = static_cast<std::size_t>(r);
          const auto base = static_cast<std::size_t>(slot_start[ri]);
          const index_t actual =
              stage_row(config, r, methods[ri], caps[ri], slot_cols + base,
                        slot_vals + base, ws, cost, counters, tally);
          out.row_nnz[ri] = actual;
          if (actual > caps[ri]) ++counters.estimate_underflow_rows;
          switch (methods[ri]) {
            case RowMethod::kDirect: ++counters.direct_rows; break;
            case RowMethod::kDense: ++counters.dense_rows; break;
            case RowMethod::kHash: ++counters.hash_rows; break;
          }
        }
        charge_row_sweep(cost, ctx, block_rows, lb.group_size, /*numeric=*/true, ws);
        charge_block(cost, tally);
        return cost;
      },
      [](const std::monostate&) {});

  // Compaction: exact offsets from the actual counts, then every fitting
  // row moves from its staging slot to its final position.
  std::vector<offset_t> offsets(rows + 1, 0);
  std::copy(out.row_nnz.begin(), out.row_nnz.end(), offsets.begin() + 1);
  inclusive_prefix_sum(std::span<offset_t>(offsets.data() + 1, rows));
  std::vector<index_t> out_cols(static_cast<std::size_t>(offsets.back()));
  std::vector<value_t> out_vals(static_cast<std::size_t>(offsets.back()));
  pool_or_global(ctx.pool).parallel_for(
      rows, kRowChunk, [&](std::size_t begin, std::size_t end, int /*worker*/) {
        for (std::size_t r = begin; r < end; ++r) {
          const auto n = static_cast<std::size_t>(out.row_nnz[r]);
          if (n == 0 || out.row_nnz[r] > caps[r]) continue;  // empty or refit
          const auto src = static_cast<std::size_t>(slot_start[r]);
          const auto dst = static_cast<std::size_t>(offsets[r]);
          std::memcpy(out_cols.data() + dst, slot_cols + src, n * sizeof(index_t));
          std::memcpy(out_vals.data() + dst, slot_vals + src, n * sizeof(value_t));
        }
      });

  out.c = Csr(ctx.a->rows(), ctx.b->cols(), std::move(offsets), std::move(out_cols),
              std::move(out_vals));
  if (out.stats.estimate_underflow_rows > 0) {
    std::vector<index_t> overflowed;
    for (std::size_t r = 0; r < rows; ++r) {
      if (out.row_nnz[r] > caps[r]) overflowed.push_back(static_cast<index_t>(r));
    }
    refit(std::span<const index_t>(overflowed), std::span<const RowMethod>(methods), out);
  }
  return out;
}

/// Size of the pre-allocated global hash map pool for rows that may not fit
/// the largest scratchpad map (paper §4.3 "Sparse Rows of C"), at the
/// capacity the kernels actually get (after fault injection).
inline std::size_t global_pool_bytes(const KernelContext& ctx, const BinPlan& plan,
                              bool symbolic) {
  const KernelConfig& largest = ctx.configs->back();
  const auto capacity = static_cast<offset_t>(ctx.effective_capacity(
      symbolic ? largest.symbolic_hash_capacity() : largest.numeric_hash_capacity()));
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
