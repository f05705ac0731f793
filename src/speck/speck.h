// Public entry point: the spECK SpGEMM algorithm (paper §4, Fig. 2).
//
// Pipeline: row analysis -> (conditional) global load balancing -> symbolic
// SpGEMM -> (conditional) global load balancing -> numeric SpGEMM -> sorting.
#pragma once

#include <memory>
#include <span>

#include "common/check.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "ref/spgemm_api.h"
#include "sim/memory_tracker.h"
#include "speck/config.h"
#include "speck/kernels.h"
#include "speck/plan.h"
#include "speck/plan_cache.h"

namespace speck {

struct SymbolicEstimate;

class Speck final : public SpGemmAlgorithm {
 public:
  Speck(sim::DeviceSpec device, sim::CostModel model, SpeckConfig config = {})
      : SpGemmAlgorithm(device, model),
        config_(config),
        kernel_configs_(kernel_configs(device)) {
    validate(config_);
  }

  std::string name() const override { return "speck"; }
  SpGemmResult multiply(const Csr& a, const Csr& b) override;

  /// Output-masked multiply: C = (A * B) ∘ mask, the mask taken structurally
  /// (GraphBLAS-style — its values never matter). Only mask positions can
  /// appear in C; a mask position touched by at least one intermediate
  /// product is kept even when the accumulated value is 0.0, an untouched
  /// one is dropped. The pipeline skips the symbolic pass entirely — the
  /// mask row *is* the candidate pattern — and sizes accumulators off
  /// min(products, mask_row_nnz), which is what makes masked products (the
  /// triangle-counting kernel tricount builds on) cheaper than
  /// multiply-then-filter. Transparently plan-cached like multiply(), keyed
  /// by the extended masked fingerprint. Equivalent to setting
  /// SpeckConfig::mask and calling multiply().
  SpGemmResult multiply_masked(const Csr& a, const Csr& b, const Csr& mask);

  /// Outcome of the non-throwing entry point. `status.ok()` implies
  /// `result` carries a successful multiplication; otherwise `result` is
  /// whatever partial state was produced (timeline, failure_reason) and
  /// `status` classifies the failure.
  struct TryMultiplyOutcome {
    Status status;
    SpGemmResult result;
    bool ok() const { return status.ok(); }
  };

  /// Non-throwing variant of multiply(): every exception the pipeline can
  /// raise — BadInput from validation, ResourceExhausted from checked
  /// arithmetic, InternalError from invariant checks — is caught and mapped
  /// to a Status; structured SpGemmResult failures (simulated OOM,
  /// unsupported shapes) are mapped likewise.
  TryMultiplyOutcome try_multiply(const Csr& a, const Csr& b) noexcept;

  /// Runs the full pipeline once and freezes everything structure-derived
  /// into a SpeckPlan (docs/performance.md "Structure reuse"). The full
  /// run's result — including the computed C with the inputs' current
  /// values — is stored into `*full_result` when non-null. On failure the
  /// returned plan has `complete == false` and multiply_with_plan falls
  /// back to the full pipeline. A non-null `cancel` token is polled between
  /// pipeline phases; an expired/cancelled token throws DeadlineExceeded
  /// from the coordinating thread (cooperative cancellation — running
  /// kernels are never interrupted).
  SpeckPlan plan(const Csr& a, const Csr& b, SpGemmResult* full_result = nullptr,
                 const CancelToken* cancel = nullptr);

  /// Masked counterpart of plan(): freezes the masked pipeline's structure
  /// state (fingerprint includes the mask pattern) so masked products replay
  /// values-only like any fixed-pattern multiply. Replay the result with
  /// multiply_with_plan / replay_values_into while SpeckConfig::mask holds
  /// the same mask — a masked plan is rejected when the configured mask is
  /// absent or different.
  SpeckPlan plan_masked(const Csr& a, const Csr& b, const Csr& mask,
                        SpGemmResult* full_result = nullptr,
                        const CancelToken* cancel = nullptr);

  /// Values-only multiply against a frozen plan: skips row analysis, global
  /// load balancing, the symbolic pass and sorting, and writes values
  /// straight into the plan's cached C pattern (simulated seconds cover
  /// only the numeric + sorting stages). The plan's fingerprint is verified
  /// first — the O(nnz) pattern-hash check under `validate_inputs`, the
  /// O(1) dims/nnz/config check otherwise; a mismatched or incomplete plan
  /// falls back to the full pipeline — masked by SpeckConfig::mask when one
  /// is configured, like multiply() — and sets
  /// `last_diagnostics().plan_fallback`. Single-caller API (mutates
  /// last_diagnostics()/last_trace()); concurrent clients use the const
  /// overload below.
  SpGemmResult multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                  const Csr& b);

  /// Thread-safe replay for concurrent clients sharing this instance: const,
  /// touches no member state (diagnostics go to `diag` when non-null, no
  /// launch trace is recorded) and runs the replay serially on the calling
  /// thread — with N clients each replaying their own request, intra-request
  /// parallelism would only contend. Unlike the legacy overload there is no
  /// full-pipeline fallback (that would need mutable state): a stale or
  /// incomplete plan returns SpGemmStatus::kUnsupported with the reason, and
  /// the caller re-plans. Results are bit-identical to multiply().
  SpGemmResult multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                  const Csr& b, SpeckDiagnostics* diag) const;

  /// Like the const multiply_with_plan, but writes the result values into
  /// caller-owned storage (`out.size()` must equal the plan's c_nnz) and
  /// leaves `result.c` empty — the C pattern lives in the plan, shared by
  /// every replay of it. With a reused buffer the steady state performs zero
  /// heap allocations: the service hot path.
  SpGemmResult replay_values_into(const SpeckPlan& plan, const Csr& a,
                                  const Csr& b, std::span<value_t> out,
                                  SpeckDiagnostics* diag = nullptr) const;

  const SpeckConfig& config() const { return config_; }
  SpeckConfig& config() { return config_; }
  const std::vector<KernelConfig>& configs() const { return kernel_configs_; }

  /// Diagnostics of the most recent multiply() call.
  const SpeckDiagnostics& last_diagnostics() const { return diagnostics_; }

  /// Launch-by-launch execution trace of the most recent multiply() call.
  const sim::LaunchTrace& last_trace() const { return trace_; }

  /// The pool this instance parallelizes host stages over: a private pool
  /// of `config().host_threads` threads when that is non-zero, else null
  /// (the stages then use the process-wide pool). Rebuilt lazily when the
  /// configured count changes.
  ThreadPool* host_pool();

  /// Per-worker kernel workspaces, owned by the instance so repeated
  /// multiplies reuse warm buffers (the zero-allocation hot path).
  WorkspacePool& workspaces() { return workspaces_; }

  /// The transparent LRU plan cache behind multiply() — exposed for stats
  /// and tests. One shard: multiply() is single-caller (concurrent clients
  /// share plans through SpeckService's own cache). Lazily (re)built when
  /// config().plan_cache_limit_bytes changes.
  PlanCache& plan_cache();

 private:
  /// One run of the pipeline: its per-run state and the steps every stage
  /// repeats (defined in speck.cpp).
  class PipelineRun;
  friend SymbolicEstimate symbolic_estimate(Speck& speck, const Csr& a,
                                            const Csr& b);

  /// multiply() / multiply_masked() behind the transparent plan cache;
  /// `mask` is null for an unmasked product.
  SpGemmResult multiply_cached(const Csr& a, const Csr& b, const Csr* mask);

  /// plan() / plan_masked(): a capturing pipeline run.
  SpeckPlan plan_for(const Csr& a, const Csr& b, const Csr* mask,
                     SpGemmResult* full_result, const CancelToken* cancel);

  /// The pipeline (paper Fig. 2): row analysis → row sizes → numeric LB →
  /// numeric pass. The row sizes come from the symbolic pass (exact
  /// planning), the sampled estimator (estimated planning) or the mask rows
  /// (non-null `mask`), and select the matching numeric kernel. When
  /// `capture` is non-null and the run succeeds, the plan is filled with
  /// the frozen structure state and replay start bits. A non-null `cancel`
  /// token is polled at every stage boundary and throws DeadlineExceeded
  /// when expired. `steal_pattern` is a promise from the caller that the
  /// returned result will be discarded: the capture then moves the C
  /// pattern arrays out of result.c into the plan instead of copying them
  /// (result.c comes back empty).
  SpGemmResult run_pipeline(const Csr& a, const Csr& b, const Csr* mask,
                            SpeckPlan* capture,
                            const CancelToken* cancel = nullptr,
                            bool steal_pattern = false);

  /// The const replay entry points: a serial replay of a verified plan
  /// into result.c (`out` null) or `*out`, or kUnsupported naming why the
  /// plan was rejected.
  SpGemmResult replay_or_reject(const SpeckPlan& plan, const Csr& a,
                                const Csr& b, SpeckDiagnostics* diag,
                                std::span<value_t>* out) const;

  /// Shared replay core. Const and member-state-free: diagnostics and the
  /// launch trace are only written through the out-params, values go to
  /// `*external` when non-null (caller-owned, result.c left empty) or to a
  /// freshly built result.c otherwise. A 1-thread `pool` runs the
  /// allocation-free serial replay kernel.
  SpGemmResult replay_plan_into(const SpeckPlan& plan, const Csr& a,
                                const Csr& b, ThreadPool* pool,
                                SpeckDiagnostics* diag, sim::LaunchTrace* trace,
                                std::span<value_t>* external) const;

  /// True when the structure is small enough for the transparent cache.
  bool plan_worth_caching(const Csr& a, const Csr& b) const;

  SpeckConfig config_;
  std::vector<KernelConfig> kernel_configs_;
  SpeckDiagnostics diagnostics_;
  sim::LaunchTrace trace_;
  std::unique_ptr<ThreadPool> pool_;
  WorkspacePool workspaces_;
  /// Partition-local workspace pools of the two-level executor
  /// (config().partitions > 1); grows monotonically like workspaces_.
  PartitionWorkspaces team_workspaces_;

  /// Transparent plan cache (config().plan_cache): a structure is planned
  /// once it shows up twice in a row; the plan then lives in an LRU cache
  /// keyed by full fingerprint, so multiple patterns stay warm at once
  /// under the byte budget.
  PlanFingerprint last_structure_;
  bool has_last_structure_ = false;
  std::unique_ptr<PlanCache> transparent_cache_;
};

/// Symbolic-only estimate: the exact NNZ of C = A*B plus the simulated cost
/// of obtaining it (analysis + symbolic pass). Lets applications size output
/// buffers or decide between algorithms before committing to the numeric
/// work (the same information spECK's numeric load balancer consumes).
struct SymbolicEstimate {
  std::vector<index_t> row_nnz;
  offset_t c_nnz = 0;
  offset_t products = 0;
  double seconds = 0.0;
};

/// Runs the exact pipeline up to numeric binning without touching the
/// instance's last_diagnostics() or last_trace(); throws ResourceExhausted
/// when those stages exceed the simulated device memory.
SymbolicEstimate symbolic_estimate(Speck& speck, const Csr& a, const Csr& b);

}  // namespace speck
