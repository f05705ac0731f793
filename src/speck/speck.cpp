#include "speck/speck.h"

#include <algorithm>
#include <optional>

#include "matrix/matrix_stats.h"
#include "sim/memory_tracker.h"
#include "speck/estimator.h"
#include "speck/kernels_detail.h"
#include "speck/masked_pass.h"

namespace speck {
namespace {

/// Where the pipeline takes the per-row C sizes that numeric binning and
/// the C allocation run off. Each source also picks the numeric kernel.
enum class RowSizes {
  kSymbolic,   ///< exact symbolic pass → run_numeric
  kEstimated,  ///< sampled estimator → run_numeric_estimated
  kMask,       ///< min(products, mask row) → run_numeric_masked
};

void validate_multiply_inputs(const Csr& a, const Csr& b) {
  a.validate();
  b.validate();
  if (!a.sorted_within_rows()) {
    throw BadInput("matrix A has unsorted rows (CSR requires ascending "
                   "column indices; call sort_rows())",
                   "Speck::multiply");
  }
  if (!b.sorted_within_rows()) {
    throw BadInput("matrix B has unsorted rows (CSR requires ascending "
                   "column indices; call sort_rows())",
                   "Speck::multiply");
  }
}

/// The output mask must describe positions of C = A*B, i.e. be rows(A) x
/// cols(B). The dimension check is unconditional (it is O(1) and a wrong-
/// shape mask silently corrupts the product); the O(nnz) structural checks
/// run under validate_inputs like A's and B's.
void validate_mask_input(const Csr& a, const Csr& b, const Csr& mask,
                         bool full) {
  if (mask.rows() != a.rows() || mask.cols() != b.cols()) {
    throw BadInput("output mask must be rows(A) x cols(B) = " +
                       std::to_string(a.rows()) + "x" + std::to_string(b.cols()) +
                       "; got " + std::to_string(mask.rows()) + "x" +
                       std::to_string(mask.cols()),
                   "Speck::multiply_masked");
  }
  if (!full) return;
  mask.validate();
  if (!mask.sorted_within_rows()) {
    throw BadInput("mask has unsorted rows (CSR requires ascending column "
                   "indices; call sort_rows())",
                   "Speck::multiply_masked");
  }
}

/// Why `plan` must not be replayed against (a, b) under `cfg`, or empty.
/// Shared by the fallback (legacy) and reject (concurrent) replay entries.
std::string plan_reject_reason(const SpeckPlan& plan, const Csr& a,
                               const Csr& b, const SpeckConfig& cfg) {
  if (!plan.complete) {
    return plan.incomplete_reason.empty() ? "plan is incomplete"
                                          : plan.incomplete_reason;
  }
  const Csr* mask = cfg.mask.get();
  if (plan.fingerprint.masked && mask == nullptr) {
    return "plan is masked but no mask is configured (set SpeckConfig::mask "
           "to the mask the plan was built with)";
  }
  const PlanFingerprint now = plan_fingerprint(
      a, b, mask, cfg, /*with_pattern_hashes=*/cfg.validate_inputs);
  const bool match = cfg.validate_inputs
                         ? now.matches_full(plan.fingerprint)
                         : now.matches_quick(plan.fingerprint);
  if (!match) {
    return "structural fingerprint mismatch: plan is stale for these "
           "inputs or this configuration";
  }
  return {};
}

/// Device bytes of a CSR matrix with `rows` rows and `nnz` entries.
std::size_t csr_bytes(index_t rows, offset_t nnz) {
  return (static_cast<std::size_t>(rows) + 1) * sizeof(offset_t) +
         static_cast<std::size_t>(nnz) * (sizeof(index_t) + sizeof(value_t));
}

offset_t total(std::span<const index_t> row_sizes) {
  offset_t sum = 0;
  for (const index_t n : row_sizes) sum += n;
  return sum;
}

/// Simulated device memory of one multiply. An allocation that does not fit
/// marks `result` out of memory with the reason and returns false.
struct DeviceMemory {
  sim::MemoryTracker tracker;
  SpGemmResult& result;

  bool allocate(std::size_t bytes, const char* reason) {
    if (tracker.allocate(bytes)) return true;
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = reason;
    return false;
  }

  /// A buffer that lives for one kernel only (nothing when empty).
  bool transient(std::size_t bytes, const char* reason) {
    if (bytes == 0) return true;
    if (!allocate(bytes, reason)) return false;
    tracker.release(bytes);
    return true;
  }
};

}  // namespace

/// One pipeline run. Owns what every stage touches — the fault injector,
/// the simulated device memory, the kernel context and the result under
/// construction — and the steps each stage repeats: finishing a launch into
/// the timeline and the trace, allocating device memory with an OOM exit,
/// and polling for cancellation. Each step method returns false once the
/// run has failed with a simulated OOM; `result` then says why.
class Speck::PipelineRun {
 public:
  PipelineRun(Speck& speck, const Csr& a, const Csr& b, const Csr* mask,
              RowSizes source, const CancelToken* cancel, SpeckDiagnostics& diag,
              sim::LaunchTrace& trace)
      : speck_(speck),
        a_(a),
        b_(b),
        mask_(mask),
        source_(source),
        cancel_(cancel),
        diag_(diag),
        trace_(trace),
        memory_{sim::MemoryTracker(speck.device_.global_memory_bytes), result} {
    // Cooperative cancellation: polled at stage boundaries on this (the
    // coordinating) thread only — pool workers never throw. A kernel that
    // has started runs to completion; the check before each stage keeps an
    // expired request from entering the next one.
    poll("admission");
    SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
    const SpeckConfig& cfg = speck.config_;
    if (mask != nullptr) validate_mask_input(a, b, *mask, cfg.validate_inputs);
    if (cfg.validate_inputs) validate_multiply_inputs(a, b);
    if (cfg.faults.enabled()) {
      faults_ = &injector_.emplace(cfg.faults);
      memory_.tracker =
          sim::MemoryTracker(faults_->cap_memory(memory_.tracker.capacity_bytes()));
    }
    diag = SpeckDiagnostics{};
    diag.masked = mask != nullptr;
    diag.estimated_planning = source == RowSizes::kEstimated;
    diag.wide_keys = b.cols() > kMaxColumns32Bit;
    trace.clear();
  }

  // The kernel context and the device memory point into the run itself.
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  /// Input residency and the kernel context.
  bool start() {
    // Input matrices are resident for the duration of the multiplication
    // (the paper lists this as spECK's limitation, §7); so is the mask, which
    // the numeric kernels stream row by row like B.
    if (!memory_.allocate(
            a_.byte_size() + b_.byte_size() + (mask_ != nullptr ? mask_->byte_size() : 0),
            "input matrices exceed device memory")) {
      return false;
    }
    ctx_.a = &a_;
    ctx_.b = &b_;
    ctx_.mask = mask_;
    ctx_.cfg = &speck_.config_;
    ctx_.configs = &speck_.kernel_configs_;
    ctx_.device = &speck_.device_;
    ctx_.model = &speck_.model_;
    ctx_.wide_keys = diag_.wide_keys;
    ctx_.trace = &trace_;
    ctx_.pool = speck_.host_pool();
    ctx_.workspaces = &speck_.workspaces_;
    ctx_.faults = faults_;
    ctx_.simd = simd::resolve_backend(speck_.config_.simd_backend);
    ctx_.partitions = resolve_partitions(speck_.config_.partitions);
    ctx_.partition_steal = speck_.config_.partition_steal;
    diag_.partition.partitions = ctx_.partitions;
    ctx_.partition_diag = &diag_.partition;
    if (ctx_.partitions > 1) ctx_.team_workspaces = &speck_.team_workspaces_;
    return true;
  }

  /// Row analysis, the row sizes, and the numeric binning that runs off
  /// them (paper Fig. 2 stages 1-4).
  bool plan_rows() {
    // Stage 1: the O(nnz_A) lightweight analysis (Algorithm 1). Estimated
    // planning adds a bounded per-row sampling pass for the NNZ estimates;
    // what it skips is the O(products) symbolic pass below.
    const bool estimated = source_ == RowSizes::kEstimated;
    sim::Launch launch(estimated ? "row_estimator" : "row_analysis",
                       speck_.device_, speck_.model_);
    if (estimated) {
      rows_ = estimate_rows(a_, b_, speck_.config_, launch, ctx_.pool, faults_);
    } else {
      rows_.analysis = analyze_rows(a_, b_, launch, ctx_.pool, faults_);
    }
    ctx_.analysis = &rows_.analysis;
    diag_.products = rows_.analysis.total_products;
    finish(launch, sim::Stage::kAnalysis);
    if (!memory_.allocate(static_cast<std::size_t>(a_.rows()) *
                              (sizeof(offset_t) + (estimated ? 4 : 3) * sizeof(index_t)),
                          estimated ? "row estimation buffers exceed device memory"
                                    : "row analysis buffers exceed device memory")) {
      return false;
    }
    poll(estimated ? "row estimation" : "row analysis");

    switch (source_) {
      case RowSizes::kSymbolic: {
        // Stages 2 + 3: conditional global load balancing on the
        // conservative product counts, then the symbolic pass for the exact
        // C row sizes.
        if (!balance(rows_.analysis.products, /*symbolic=*/true, symbolic_plan_)) {
          return false;
        }
        poll("symbolic load balancing");
        SymbolicOutcome symbolic = run_symbolic(ctx_, symbolic_plan_);
        diag_.symbolic = symbolic.stats;
        result.timeline.add(sim::Stage::kSymbolic, symbolic.stats.seconds);
        if (!memory_.transient(symbolic.stats.global_pool_bytes,
                               "global hash pool exceeds device memory")) {
          return false;
        }
        row_sizes_ = std::move(symbolic.row_nnz);
        // The C allocation itself is not timed (identical for every method)
        // but counts towards peak memory.
        if (!memory_.allocate(csr_bytes(a_.rows(), total(row_sizes_)),
                              "output matrix exceeds device memory")) {
          return false;
        }
        poll("symbolic pass");
        break;
      }
      case RowSizes::kEstimated:
        row_sizes_ = std::move(rows_.row_nnz_estimate);
        break;
      case RowSizes::kMask: {
        // The mask row *is* the candidate pattern, so the accumulator
        // demand per row is the hard bound min(products, mask_row_nnz) —
        // never an estimate, so there is no fallback machinery. Faults
        // perturb the analysis's product counts, so under faults the bound
        // recounts the exact ones: faults may only move binning.
        row_sizes_.resize(static_cast<std::size_t>(a_.rows()));
        for (std::size_t r = 0; r < row_sizes_.size(); ++r) {
          const auto row = static_cast<index_t>(r);
          row_sizes_[r] = static_cast<index_t>(std::min<offset_t>(
              ctx_.exact_products(row), mask_->row_length(row)));
        }
        break;
      }
    }

    // Stage 4: conditional global load balancing for the numeric pass, on
    // the row sizes inflated by the hash fill limit (66%).
    std::vector<offset_t> entries(row_sizes_.size());
    for (std::size_t r = 0; r < entries.size(); ++r) {
      entries[r] = static_cast<offset_t>(static_cast<double>(row_sizes_[r]) /
                                             speck_.config_.max_numeric_fill +
                                         1.0);
      if (faults_ != nullptr) {
        // Like the analysis estimates, a perturbed binning input only shifts
        // rows between kernel configurations.
        entries[r] = faults_->scale_estimate(static_cast<index_t>(r), entries[r]);
      }
    }
    if (!balance(entries, /*symbolic=*/false, numeric_plan_)) return false;
    poll("numeric load balancing");
    return true;
  }

  /// Stages 5 + 6: the numeric pass the row sizes select and the sort,
  /// which complete the result.
  bool numeric() {
    // Without the symbolic pass, C is staged in one slot per row sized by
    // the estimate or mask bound, and the exact C is allocated afterwards.
    if (source_ != RowSizes::kSymbolic) {
      staging_bytes_ = csr_bytes(a_.rows(), total(row_sizes_));
      if (!memory_.allocate(staging_bytes_,
                            source_ == RowSizes::kMask
                                ? "masked output staging exceeds device memory"
                                : "estimated output staging exceeds device memory")) {
        return false;
      }
    }
    trace_mark_ = trace_.launches().size();
    switch (source_) {
      case RowSizes::kSymbolic:
        numeric_ = run_numeric(ctx_, numeric_plan_, row_sizes_);
        break;
      case RowSizes::kEstimated:
        // Discovers the exact pattern, re-running underflowed rows through
        // the exact fallback, and compacts.
        numeric_ = run_numeric_estimated(ctx_, numeric_plan_, row_sizes_);
        break;
      case RowSizes::kMask:
        // No sort follows: mask rows are ascending, so extraction emits C
        // already in final order.
        numeric_ = run_numeric_masked(ctx_, numeric_plan_, row_sizes_);
        break;
    }
    diag_.numeric = numeric_.stats;
    diag_.radix_sorted_elements = numeric_.radix_sorted_elements;
    result.timeline.add(sim::Stage::kNumeric, numeric_.stats.seconds);
    result.timeline.add(sim::Stage::kSorting, numeric_.sorting_seconds);
    if (!memory_.transient(numeric_.stats.global_pool_bytes,
                           "global hash pool exceeds device memory")) {
      return false;
    }
    if (source_ == RowSizes::kSymbolic) {
      // Double-buffer for the device radix sort.
      if (!memory_.transient(static_cast<std::size_t>(numeric_.radix_sorted_elements) *
                                 (sizeof(index_t) + sizeof(value_t)),
                             "radix sort buffers exceed device memory")) {
        return false;
      }
    } else {
      if (!memory_.allocate(csr_bytes(a_.rows(), numeric_.c.nnz()),
                            "output matrix exceeds device memory")) {
        return false;
      }
      memory_.tracker.release(staging_bytes_);
    }
    result.c = std::move(numeric_.c);
    result.seconds = result.timeline.total_seconds();
    result.peak_memory_bytes = memory_.tracker.peak_bytes();
    return true;
  }

  /// Freezes the completed run's structure state into `plan`.
  void capture(SpeckPlan& plan, bool steal_pattern) {
    if (steal_pattern) {
      // The caller promised to discard the result: take the pattern arrays
      // instead of copying them (the values are dropped either way).
      std::vector<value_t> discarded_values;
      result.c.take_arrays(plan.c_row_offsets, plan.c_col_indices,
                           discarded_values);
    } else {
      const std::span<const offset_t> c_offsets = result.c.row_offsets();
      const std::span<const index_t> c_cols = result.c.col_indices();
      plan.c_row_offsets.assign(c_offsets.begin(), c_offsets.end());
      plan.c_col_indices.assign(c_cols.begin(), c_cols.end());
    }
    // Masked rows all add into zeros; unmasked rows start from the method
    // re-derived off the row sizes binning ran off — the estimates in
    // estimated mode, exactly what the estimated pass executed — which is
    // what keeps replays bit-identical.
    NumericReplayProgram& program = plan.program;
    program.products = static_cast<std::size_t>(count_products(a_, b_));
    program.assign_first.assign(static_cast<std::size_t>(a_.rows()), 0);
    if (ctx_.mask == nullptr) {
      const std::vector<RowMethod> methods =
          detail::row_methods(ctx_, numeric_plan_, row_sizes_);
      for (std::size_t r = 0; r < methods.size(); ++r) {
        program.assign_first[r] = methods[r] != RowMethod::kDense ? 1 : 0;
      }
    }
    plan.complete = true;
    plan.diagnostics = diag_;
    plan.numeric_seconds = numeric_.stats.seconds;
    plan.sorting_seconds = numeric_.sorting_seconds;
    const std::vector<sim::LaunchResult>& launches = trace_.launches();
    plan.replay_trace.assign(
        launches.begin() + static_cast<std::ptrdiff_t>(trace_mark_),
        launches.end());
  }

  /// Simulated seconds of the stages before the numeric pass.
  double inspect_seconds() const {
    return result.timeline.seconds(sim::Stage::kAnalysis) +
           result.timeline.seconds(sim::Stage::kSymbolicLoadBalance) +
           result.timeline.seconds(sim::Stage::kSymbolic) +
           result.timeline.seconds(sim::Stage::kNumericLoadBalance);
  }

  const RowAnalysis& analysis() const { return rows_.analysis; }
  std::vector<index_t>& row_sizes() { return row_sizes_; }

  SpGemmResult result;

 private:
  void poll(const char* phase) const {
    if (cancel_ != nullptr) cancel_->check(phase);
  }

  /// Ends a stage's launch: its simulated seconds join the timeline and the
  /// launch joins the trace.
  void finish(const sim::Launch& launch, sim::Stage stage) {
    sim::LaunchResult finished = launch.finish();
    result.timeline.add(stage, finished.seconds);
    trace_.record(std::move(finished));
  }

  /// Conditional global load balancing (paper §4.2) over `entries`; only a
  /// balancer that actually ran is charged time and device memory.
  bool balance(std::span<const offset_t> entries, bool symbolic, BinPlan& plan) {
    sim::Launch launch(symbolic ? "symbolic_lb" : "numeric_lb", speck_.device_,
                       speck_.model_);
    const GlobalLbInputs inputs{entries, symbolic};
    plan = plan_global_lb(inputs, speck_.kernel_configs_, speck_.config_, launch);
    (symbolic ? diag_.symbolic_decision : diag_.numeric_decision) =
        lb_decision_stats(inputs, speck_.kernel_configs_, speck_.config_);
    (symbolic ? diag_.symbolic_lb_used : diag_.numeric_lb_used) =
        plan.used_load_balancer;
    (symbolic ? diag_.symbolic_blocks : diag_.numeric_blocks) =
        static_cast<int>(plan.blocks.size());
    if (!plan.used_load_balancer) return true;
    finish(launch, symbolic ? sim::Stage::kSymbolicLoadBalance
                            : sim::Stage::kNumericLoadBalance);
    return memory_.allocate(plan.lb_memory_bytes,
                            "load balancer buffers exceed device memory");
  }

  Speck& speck_;
  const Csr& a_;
  const Csr& b_;
  const Csr* mask_;
  RowSizes source_;
  const CancelToken* cancel_;
  SpeckDiagnostics& diag_;
  sim::LaunchTrace& trace_;
  std::optional<FaultInjector> injector_;
  const FaultInjector* faults_ = nullptr;
  DeviceMemory memory_;
  KernelContext ctx_;
  /// The analysis, plus the sampled NNZ estimates in estimated mode.
  RowEstimate rows_;
  BinPlan symbolic_plan_;
  BinPlan numeric_plan_;
  /// What numeric binning and the numeric kernel ran off: exact symbolic
  /// counts, NNZ estimates, or per-row mask demand.
  std::vector<index_t> row_sizes_;
  std::size_t staging_bytes_ = 0;
  NumericOutcome numeric_;
  std::size_t trace_mark_ = 0;
};

ThreadPool* Speck::host_pool() {
  if (config_.host_threads == 0) {
    pool_.reset();
    return nullptr;
  }
  if (!pool_ || pool_->thread_count() != config_.host_threads) {
    pool_ = std::make_unique<ThreadPool>(config_.host_threads);
  }
  return pool_.get();
}

bool Speck::plan_worth_caching(const Csr& a, const Csr& b) const {
  // estimate_plan_bytes is O(nnz_A) — cheap relative to the full multiply
  // the cache is about to amortize — and bounds the plan's real byte_size(),
  // so a structure admitted here can actually be retained by the cache.
  return estimate_plan_bytes(a, b) <= config_.plan_cache_limit_bytes;
}

PlanCache& Speck::plan_cache() {
  if (!transparent_cache_ ||
      transparent_cache_->limit_bytes() != config_.plan_cache_limit_bytes) {
    transparent_cache_ = std::make_unique<PlanCache>(
        /*shards=*/1, config_.plan_cache_limit_bytes);
  }
  return *transparent_cache_;
}

SpGemmResult Speck::multiply(const Csr& a, const Csr& b) {
  return multiply_cached(a, b, config_.mask.get());
}

SpGemmResult Speck::multiply_masked(const Csr& a, const Csr& b,
                                    const Csr& mask) {
  return multiply_cached(a, b, &mask);
}

SpGemmResult Speck::multiply_cached(const Csr& a, const Csr& b,
                                    const Csr* mask) {
  if (!config_.plan_cache) {
    has_last_structure_ = false;
    transparent_cache_.reset();
    return run_pipeline(a, b, mask, nullptr);
  }
  PlanCache& cache = plan_cache();
  // The masked fingerprint keeps masked and unmasked structures from ever
  // colliding.
  const PlanFingerprint fp = plan_fingerprint(a, b, mask, config_);
  if (const std::shared_ptr<const SpeckPlan> plan = cache.find(fp)) {
    SpGemmResult result = replay_plan_into(*plan, a, b, host_pool(),
                                           &diagnostics_, &trace_, nullptr);
    diagnostics_.plan_cache_hit = true;
    return result;
  }
  // Build the plan only once the same structure shows up twice in a row:
  // one-off multiplies never pay the capture cost, iterative workloads pay
  // it exactly once.
  const bool build = has_last_structure_ && fp.matches_full(last_structure_) &&
                     plan_worth_caching(a, b);
  last_structure_ = fp;
  has_last_structure_ = true;
  if (!build) return run_pipeline(a, b, mask, nullptr);
  auto plan = std::make_shared<SpeckPlan>();
  plan->fingerprint = fp;
  SpGemmResult result = run_pipeline(a, b, mask, plan.get());
  if (result.ok() && plan->complete) cache.insert(std::move(plan));
  return result;
}

SpeckPlan Speck::plan(const Csr& a, const Csr& b, SpGemmResult* full_result,
                      const CancelToken* cancel) {
  return plan_for(a, b, nullptr, full_result, cancel);
}

SpeckPlan Speck::plan_masked(const Csr& a, const Csr& b, const Csr& mask,
                             SpGemmResult* full_result,
                             const CancelToken* cancel) {
  return plan_for(a, b, &mask, full_result, cancel);
}

SpeckPlan Speck::plan_for(const Csr& a, const Csr& b, const Csr* mask,
                          SpGemmResult* full_result, const CancelToken* cancel) {
  SpeckPlan plan;
  plan.fingerprint = plan_fingerprint(a, b, mask, config_);
  // When the caller does not want the full multiply result, the capture
  // may steal the C pattern arrays from it instead of copying.
  SpGemmResult result = run_pipeline(a, b, mask, &plan, cancel,
                                     /*steal_pattern=*/full_result == nullptr);
  if (!result.ok() && plan.incomplete_reason.empty()) {
    plan.incomplete_reason = "planning run failed: " + result.failure_reason;
  }
  if (full_result != nullptr) *full_result = std::move(result);
  return plan;
}

SpGemmResult Speck::run_pipeline(const Csr& a, const Csr& b, const Csr* mask,
                                 SpeckPlan* capture, const CancelToken* cancel,
                                 bool steal_pattern) {
  const RowSizes source =
      mask != nullptr ? RowSizes::kMask
      : resolve_planning(config_.planning) == PlanningMode::kEstimated
          ? RowSizes::kEstimated
          : RowSizes::kSymbolic;
  PipelineRun run(*this, a, b, mask, source, cancel, diagnostics_, trace_);
  if (!run.start() || !run.plan_rows() || !run.numeric()) {
    return std::move(run.result);
  }
  if (capture != nullptr) run.capture(*capture, steal_pattern);
  return std::move(run.result);
}

SpGemmResult Speck::multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b) {
  std::string reject = plan_reject_reason(plan, a, b, config_);
  if (reject.empty()) {
    return replay_plan_into(plan, a, b, host_pool(), &diagnostics_, &trace_,
                            nullptr);
  }
  SpGemmResult result = run_pipeline(a, b, config_.mask.get(), nullptr);
  diagnostics_.plan_fallback = true;
  diagnostics_.plan_fallback_reason = std::move(reject);
  return result;
}

SpGemmResult Speck::multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b,
                                       SpeckDiagnostics* diag) const {
  return replay_or_reject(plan, a, b, diag, nullptr);
}

SpGemmResult Speck::replay_values_into(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b, std::span<value_t> out,
                                       SpeckDiagnostics* diag) const {
  return replay_or_reject(plan, a, b, diag, &out);
}

SpGemmResult Speck::replay_or_reject(const SpeckPlan& plan, const Csr& a,
                                     const Csr& b, SpeckDiagnostics* diag,
                                     std::span<value_t>* out) const {
  const std::string reject = plan_reject_reason(plan, a, b, config_);
  if (!reject.empty()) {
    // No fallback here: the full pipeline needs this instance's mutable
    // state, which concurrent callers must never touch. The caller decides
    // whether to re-plan.
    if (diag != nullptr) *diag = SpeckDiagnostics{};
    SpGemmResult result;
    result.status = SpGemmStatus::kUnsupported;
    result.failure_reason = "plan rejected: " + reject;
    return result;
  }
  SPECK_REQUIRE(out == nullptr || out->size() == static_cast<std::size_t>(plan.c_nnz()),
                "replay_values_into: output span must be sized to the plan's "
                "c_nnz");
  return replay_plan_into(plan, a, b, &serial_pool(), diag, nullptr, out);
}

SpGemmResult Speck::replay_plan_into(const SpeckPlan& plan, const Csr& a,
                                     const Csr& b, ThreadPool* pool,
                                     SpeckDiagnostics* diag,
                                     sim::LaunchTrace* trace,
                                     std::span<value_t>* external) const {
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  if (config_.validate_inputs) validate_multiply_inputs(a, b);
  SpGemmResult result;
  const std::size_t capacity =
      FaultInjector(config_.faults).cap_memory(device_.global_memory_bytes);
  DeviceMemory memory{sim::MemoryTracker(capacity), result};
  // The pipeline is a deterministic function of structure and configuration
  // — values never steer control flow — so the capturing run's diagnostics
  // are exactly what a full run on these inputs would report. Only the
  // hot-path allocation counter is measured live below.
  if (diag != nullptr) {
    *diag = plan.diagnostics;
    diag->plan_used = true;
    diag->plan_cache_hit = false;
    diag->plan_fallback = false;
    diag->plan_fallback_reason.clear();
  }
  if (trace != nullptr) trace->clear();

  const auto c_nnz = static_cast<std::size_t>(plan.c_nnz());
  // Inputs and C are resident as in a full run, and the replayed numeric
  // kernels use the same transient device buffers the full numeric pass did.
  if (!memory.allocate(a.byte_size() + b.byte_size(),
                       "input matrices exceed device memory") ||
      !memory.allocate(csr_bytes(plan.fingerprint.a_rows, plan.c_nnz()),
                       "output matrix exceeds device memory") ||
      !memory.transient(plan.diagnostics.numeric.global_pool_bytes,
                        "global hash pool exceeds device memory") ||
      !memory.transient(static_cast<std::size_t>(plan.diagnostics.radix_sorted_elements) *
                            (sizeof(index_t) + sizeof(value_t)),
                        "radix sort buffers exceed device memory")) {
    return result;
  }

  // Caller-owned values leave result.c empty — the pattern is shared via
  // the plan. Owned values are created by the replay itself, at each row's
  // start value, instead of zero-filled first. A 1-thread pool (the
  // concurrent service path) replays on this thread without allocating.
  std::vector<value_t> values;
  if (external == nullptr) values.reserve(c_nnz);
  const std::size_t replay_allocs = replay_numeric_values(
      a, b, plan.program, plan.c_row_offsets, plan.c_col_indices, pool,
      external != nullptr ? *external : std::span<value_t>(),
      external != nullptr ? nullptr : &values);
  if (external == nullptr) {
    result.c = Csr(plan.fingerprint.a_rows, plan.fingerprint.b_cols,
                   std::span<const offset_t>(plan.c_row_offsets),
                   std::span<const index_t>(plan.c_col_indices), std::move(values));
  }
  if (diag != nullptr) diag->numeric.hot_path_allocs = replay_allocs;

  if (trace != nullptr) {
    for (const sim::LaunchResult& launch : plan.replay_trace) {
      trace->record(launch);
    }
  }
  result.timeline.add(sim::Stage::kNumeric, plan.numeric_seconds);
  result.timeline.add(sim::Stage::kSorting, plan.sorting_seconds);
  result.seconds = result.timeline.total_seconds();
  result.peak_memory_bytes = memory.tracker.peak_bytes();
  return result;
}

SymbolicEstimate symbolic_estimate(Speck& speck, const Csr& a, const Csr& b) {
  // The exact pipeline up to numeric binning, reported into local
  // diagnostics and trace so the last multiply's stay intact.
  SpeckDiagnostics diag;
  sim::LaunchTrace trace;
  Speck::PipelineRun run(speck, a, b, nullptr, RowSizes::kSymbolic, nullptr,
                         diag, trace);
  if (!run.start() || !run.plan_rows()) {
    throw ResourceExhausted(run.result.failure_reason, "symbolic_estimate");
  }
  SymbolicEstimate estimate;
  estimate.row_nnz = std::move(run.row_sizes());
  estimate.c_nnz = total(estimate.row_nnz);
  estimate.products = run.analysis().total_products;
  estimate.seconds = run.inspect_seconds();
  return estimate;
}

Speck::TryMultiplyOutcome Speck::try_multiply(const Csr& a,
                                              const Csr& b) noexcept {
  TryMultiplyOutcome out;
  try {
    out.result = multiply(a, b);
    switch (out.result.status) {
      case SpGemmStatus::kOk:
        break;
      case SpGemmStatus::kOutOfMemory:
        out.status = Status{ErrorCode::kResourceExhausted,
                            out.result.failure_reason, "Speck::multiply"};
        break;
      case SpGemmStatus::kUnsupported:
        out.status = Status{ErrorCode::kBadInput, out.result.failure_reason,
                            "Speck::multiply"};
        break;
    }
  } catch (...) {
    out.status = status_from_current_exception();
  }
  return out;
}

}  // namespace speck
