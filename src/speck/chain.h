// Chain multiplication: C = M1 * M2 * ... * Mk with a cost-driven
// association order.
//
// SpGEMM chains appear in the paper's motivating applications — the AMG
// Galerkin product R*A*P is a triple product whose association order can
// change the intermediate-product volume by large factors. The chain
// multiplier greedily contracts the adjacent pair with the smallest exact
// intermediate-product count (computable in O(nnz) without multiplying).
#pragma once

#include <vector>

#include "ref/spgemm_api.h"
#include "speck/plan_cache.h"
#include "speck/speck.h"

namespace speck {

struct ChainStep {
  std::size_t left_index = 0;  ///< position of the contracted pair (left)
  offset_t products = 0;       ///< intermediate products of that contraction
  double seconds = 0.0;
  /// True when the contraction replayed a cached SpeckPlan (plan-aware
  /// overload only).
  bool plan_reused = false;
};

struct ChainResult {
  SpGemmStatus status = SpGemmStatus::kOk;
  std::string failure_reason;
  Csr c;
  double seconds = 0.0;        ///< sum of the per-step simulated times
  offset_t total_products = 0;
  std::vector<ChainStep> steps;

  bool ok() const { return status == SpGemmStatus::kOk; }
};

/// Multiplies the chain left-to-right compatible matrices with `algorithm`,
/// greedily contracting the cheapest adjacent pair first.
ChainResult multiply_chain(std::vector<Csr> chain, SpGemmAlgorithm& algorithm);

/// Plan-aware chain multiplication with `speck`: every contraction first
/// consults `cache` (full fingerprint match) and replays on a hit; misses
/// run the full pipeline once and cache its plan for the next call.
/// Iterative applications re-multiply the same chain with fresh values (AMG
/// re-setup, R·A·P with a changing A): keep one cache alive across calls and
/// every link after the first full pass runs the values-only replay.
/// Contraction order is value-independent (exact product counts of the
/// structure), so a chain's link structures recur exactly. A one-shard
/// cache with an unbounded budget (`PlanCache(1, SIZE_MAX)`) keeps every
/// link warm — a chain's working set is the caller's deliberate choice.
ChainResult multiply_chain(std::vector<Csr> chain, Speck& speck,
                           PlanCache& cache);

/// Products of every adjacent pair in the chain (the greedy decision data).
std::vector<offset_t> chain_pair_products(const std::vector<Csr>& chain);

}  // namespace speck
