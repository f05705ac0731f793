// Concurrent SpGEMM serving layer: many client threads, one Speck.
//
// The PR-4 structure-reuse win (a ~4.4x values-only replay) only monetizes
// at scale when plans are shared, evicted and replayed by many clients at
// once — the iterated fixed-pattern workloads (AMG cycles, graph analytics)
// that dominate SpGEMM serving traffic. SpeckService provides that:
//
//  - a sharded LRU PlanCache keyed by full structural fingerprint; hits
//    hand out immutable shared_ptr<const SpeckPlan> references,
//  - a lock-free replay path: cache hits run Speck's const, member-state-
//    free replay on the calling thread (no global lock, zero steady-state
//    heap allocations via multiply_into into a client-owned buffer),
//  - a single planning mutex only on the miss path (building a plan runs
//    the full mutable pipeline; the planning run's own result serves the
//    first request, so nothing is computed twice),
//  - admission control on a global MemoryBudget: a request whose in-flight
//    memory cannot fit is rejected with kResourceExhausted (or queued until
//    capacity frees, in queue mode) instead of driving the process OOM.
//
// Request-lifecycle hardening (docs/service.md "Failure semantics"):
//
//  - per-request deadlines (RequestOptions::deadline) checked at admission,
//    inside the budget wait, at plan-mutex acquisition and between pipeline
//    phases (CancelToken into Speck::plan); expired requests answer
//    kDeadlineExceeded with a retry_after hint instead of hanging,
//  - bounded queueing + load shedding: max_queued_requests caps concurrent
//    budget waiters with a LIFO-shed-oldest overflow policy, max_queue_wait
//    caps any single wait; shed requests answer kResourceExhausted,
//  - degraded-mode execution: under pressure (or for quarantined patterns)
//    a cache-bypassing exact host path serves correct results without
//    planning or caching,
//  - quarantine: N consecutive plan-build failures circuit-break that
//    fingerprint to the degraded path for a cooldown, so one poisoned
//    input cannot serialize the plan mutex for everyone,
//  - service-level fault injection (ServiceConfig::faults): forced plan
//    failures, injected planning latency, admission budget squeeze and
//    eviction storms, driven by `speckd --chaos`.
//
// While a service wraps a Speck instance, all concurrent access must go
// through the service — the legacy single-caller Speck entry points mutate
// member state (docs/service.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "speck/plan_cache.h"
#include "speck/speck.h"

namespace speck {

/// Global byte budget with blocking and non-blocking admission. Tracks the
/// in-flight bytes of admitted requests; a request larger than the whole
/// budget can never be admitted and always fails fast.
class MemoryBudget {
 public:
  /// Why a blocking admission returned.
  enum class Admit {
    kAdmitted,   ///< bytes acquired
    kRejected,   ///< would not fit right now (non-blocking path)
    kTimedOut,   ///< the deadline expired while waiting
    kShed,       ///< evicted from a full wait queue by a newer request
    kNeverFits,  ///< larger than the whole budget; waiting cannot help
  };

  explicit MemoryBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  /// Admits `bytes` now or returns false (never blocks).
  bool try_acquire(std::size_t bytes);

  /// Blocks until `bytes` fit, then admits them. Returns false only when
  /// `bytes` exceeds the whole budget (waiting could never succeed).
  bool acquire(std::size_t bytes);

  /// Bounded blocking admission: waits until `bytes` fit, `deadline`
  /// expires, or this waiter is shed. When `max_waiters` > 0 and the wait
  /// queue is already full, the OLDEST waiter is shed to make room for
  /// this newest one ("LIFO-shed-oldest": under overload the newest
  /// requests still have deadline budget worth spending; the oldest have
  /// already burned most of theirs and would miss anyway). A shed waiter
  /// wakes with kShed. `*waited` (when non-null) is set to whether the
  /// call had to enter the wait queue at all — a per-request queueing
  /// signal for latency accounting.
  Admit acquire_until(std::size_t bytes, const Deadline& deadline,
                      std::size_t max_waiters = 0, bool* waited = nullptr);

  /// Returns admitted bytes. Releasing more than is currently admitted is
  /// an accounting bug (double release) — it throws InternalError and
  /// leaves the counter unchanged so the corruption cannot spread into
  /// admission decisions.
  void release(std::size_t bytes);

  std::size_t limit() const { return limit_; }
  std::size_t used() const;
  /// Requests currently blocked in acquire_until (a queue-pressure signal;
  /// feeds retry_after hints).
  std::size_t waiters() const;

 private:
  struct Waiter {
    bool shed = false;  ///< guarded by mutex_
  };

  std::size_t limit_;
  mutable std::mutex mutex_;
  std::condition_variable freed_;
  std::size_t used_ = 0;           ///< guarded by mutex_
  std::deque<Waiter*> waiters_;    ///< oldest first; guarded by mutex_
};

struct ServiceConfig {
  /// Shards of the service's plan cache (contention, not capacity).
  int cache_shards = 8;
  /// Byte budget across all cached plans (SpeckPlan::byte_size accounting).
  std::size_t cache_limit_bytes = 512u << 20;
  /// Global in-flight memory budget for admission control; 0 disables it.
  /// Covers per-request response memory and plan-build estimates.
  std::size_t memory_budget_bytes = 0;
  /// Over-budget requests wait for capacity instead of being rejected.
  bool queue_on_budget = false;
  /// Bounded admission queue (queue mode): > 0 caps how many requests may
  /// block on the budget at once; on overflow the oldest waiter is shed
  /// (kResourceExhausted + retry_after). 0 = unbounded (legacy behavior).
  std::size_t max_queued_requests = 0;
  /// Caps any single wait (budget queue or plan mutex) in milliseconds,
  /// independent of the request deadline; a request that hits this cap is
  /// shed, not timed out. 0 = wait as long as the deadline allows.
  double max_queue_wait_ms = 0.0;
  /// Serve pressure-rejected misses and quarantined patterns through the
  /// degraded path (exact host reference multiply, no plan, no caching)
  /// instead of failing them. Correct but slow — the safety valve.
  bool degraded_mode = false;
  /// Circuit breaker: this many consecutive plan-build failures for one
  /// fingerprint quarantine the pattern to the degraded path for
  /// `quarantine_cooldown_ms` (0 disables quarantine). Deadline expiries do
  /// not count — they say nothing about the input.
  int quarantine_threshold = 3;
  /// How long a tripped pattern stays quarantined before plan building is
  /// retried.
  double quarantine_cooldown_ms = 250.0;
  /// Service-level chaos faults (plan_fail_mod / plan_delay_ms /
  /// admission_bytes_scale / evict_every). Pipeline-side fields of the spec
  /// are ignored here — set those on SpeckConfig::faults.
  FaultSpec faults;
};

/// Monotonic service counters plus a cache snapshot.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t replays = 0;      ///< served from a cached plan
  std::uint64_t plans_built = 0;  ///< misses that built + cached a plan
  std::uint64_t full_runs = 0;    ///< misses served by the full pipeline only
  std::uint64_t rejected = 0;     ///< admission-control rejections
  std::uint64_t shed = 0;         ///< load-shed (queue overflow / wait cap)
  std::uint64_t timed_out = 0;    ///< deadline expired (kDeadlineExceeded)
  std::uint64_t degraded = 0;     ///< served by the degraded path
  std::uint64_t quarantine_trips = 0;  ///< circuit-breaker activations
  /// Rows whose sampled NNZ estimate underflowed during an estimated-planning
  /// build and re-ran through the exact fallback (always 0 under exact
  /// planning). High values relative to rows planned mean the estimator's
  /// safety margin is too tight for this workload.
  std::uint64_t estimator_fallback_rows = 0;
  /// Two-level-executor telemetry from plan builds (SpeckConfig::partitions
  /// > 1; both stay 0 / 1.0-ish with the flat executor): total chunks teams
  /// claimed from foreign partitions, and the worst per-build team-seconds
  /// imbalance (max team seconds / mean). Schedule-dependent diagnostics —
  /// useful for spotting a skewed corpus or a partition count that outruns
  /// the thread count, never part of bit-identity gates.
  std::uint64_t partition_steals = 0;
  double worst_partition_imbalance = 0.0;
  PlanCacheStats cache;
};

class SpeckService {
 public:
  /// Wraps `speck` (not owned; must outlive the service). The service keeps
  /// its own PlanCache — Speck's transparent cache stays untouched, so a
  /// Speck can be handed to a service mid-life without invalidating
  /// anything. Cold-miss plan builds inherit the wrapped Speck's
  /// SpeckConfig::planning: estimated planning shrinks the serialized
  /// plan-mutex window (the build skips the exact symbolic pass), so misses
  /// convoy for less time; plans built under each mode carry distinct
  /// fingerprints and never serve each other's lookups.
  explicit SpeckService(Speck& speck, ServiceConfig config = {});

  /// Per-request options. Default-constructed == no deadline.
  struct RequestOptions {
    /// Absolute request deadline; expired requests answer
    /// kDeadlineExceeded (with retry_after) instead of waiting or running.
    Deadline deadline;
  };

  struct Response {
    Status status;
    /// The product (owned) — empty for multiply_into, whose values land in
    /// the caller's buffer and whose pattern is shared via the plan.
    Csr c;
    double seconds = 0.0;  ///< simulated GPU seconds of this request
    bool replayed = false;  ///< served by a values-only plan replay
    bool planned = false;   ///< this request built (and cached) the plan
    bool degraded = false;  ///< served by the cache-bypassing degraded path
    /// The request waited — on the plan mutex or in the budget queue —
    /// before being served. Requests with `replayed && !queued` took the
    /// pure lock-free fast path (what chaos tail-latency gates compare).
    bool queued = false;
    /// Backoff hint in seconds for kResourceExhausted / kDeadlineExceeded
    /// answers (0 = none): grows with current queue pressure.
    double retry_after = 0.0;
    offset_t c_nnz = 0;
    bool ok() const { return status.ok(); }
  };

  /// Full-service multiply: replay on a cache hit; on a miss, the first
  /// request for a pattern builds and caches its plan, and the planning
  /// run's own result answers that request (nothing is computed twice).
  /// Thread-safe.
  Response multiply(const Csr& a, const Csr& b,
                    const RequestOptions& opts = {});

  /// Zero-allocation variant: values land in `out` (resized to c_nnz; with
  /// retained capacity the steady state allocates nothing), the pattern is
  /// shared via the cached plan. Requires the pattern's plan to be cached
  /// or buildable; thread-safe. Degraded responses fill `out` too (their
  /// pattern is dropped — callers needing it use multiply()).
  Response multiply_into(const Csr& a, const Csr& b,
                         std::vector<value_t>& out,
                         const RequestOptions& opts = {});

  /// The cached plan for (a, b), building and caching it on a miss. Null on
  /// build failure (with `*status` set when non-null). Thread-safe.
  std::shared_ptr<const SpeckPlan> plan_for(const Csr& a, const Csr& b,
                                            Status* status = nullptr);

  ServiceStats stats() const;
  PlanCache& cache() { return cache_; }
  MemoryBudget& budget() { return budget_; }
  const ServiceConfig& config() const { return config_; }

 private:
  /// Shared serve path; `out` selects the into-variant.
  Response serve(const Csr& a, const Csr& b, std::vector<value_t>* out,
                 const RequestOptions& opts);

  /// Degraded path: exact host-reference multiply, no plan, no cache, no
  /// budget accounting (the safety valve must not be throttled by the very
  /// pressure it relieves). `why` labels the response status on failure.
  Response serve_degraded(const Csr& a, const Csr& b,
                          std::vector<value_t>* out, const char* why);

  /// Admission byte charge after the chaos admission_bytes_scale squeeze
  /// (applied symmetrically at acquire and release).
  std::size_t admission_bytes(std::size_t bytes) const;

  /// Admission for `bytes` of in-flight memory per the configured mode,
  /// bounded by the request deadline and max_queue_wait. `*waited` (when
  /// non-null) reports whether the request had to queue.
  MemoryBudget::Admit admit(std::size_t bytes, const Deadline& deadline,
                            bool* waited = nullptr);

  /// Maps a failed admission outcome into `resp` (status + retry_after +
  /// stats counters). Returns true when the outcome was a failure.
  bool fail_admission(MemoryBudget::Admit outcome, std::size_t bytes,
                      const Deadline& deadline, Response* resp);

  /// The deadline actually used for waits: `deadline` capped by
  /// max_queue_wait_ms.
  Deadline wait_deadline(const Deadline& deadline) const;

  /// Suggested client backoff in seconds, scaled by queue pressure.
  double retry_hint() const;

  // Quarantine bookkeeping, keyed by plan_key_hash(fingerprint).
  bool is_quarantined(std::uint64_t key);
  void note_plan_failure(std::uint64_t key);
  void note_plan_success(std::uint64_t key);

  /// What one build_plan call produced.
  struct Build {
    MemoryBudget::Admit admitted = MemoryBudget::Admit::kAdmitted;
    std::size_t bytes = 0;  ///< the admission charge
    bool waited = false;    ///< admission had to queue
    Status status;          ///< why an admitted build failed
    /// The cached plan; null on failure or when the run could not freeze a
    /// complete plan.
    std::shared_ptr<const SpeckPlan> plan;
  };

  /// The one plan-build sequence, behind serve's miss path and plan_for:
  /// admission for the build's memory estimate, the capturing pipeline run
  /// (masked when the wrapped Speck has a mask) cancelled at `deadline`,
  /// budget release, build diagnostics and the cache insert. The caller
  /// holds plan_mutex_. A non-null `full` receives the planning run's result
  /// and a failed run fails the build; with a null `full` the capture steals
  /// the C pattern and an incomplete plan fails it with kBadInput. `where`
  /// labels failure statuses.
  Build build_plan(const Csr& a, const Csr& b, const Deadline& deadline,
                   SpGemmResult* full, const char* where);

  /// Folds a finished plan build's pipeline diagnostics into the monotonic
  /// counters (estimator fallbacks, partition steals / imbalance).
  void note_build_diagnostics(const SpeckDiagnostics& diagnostics);

  Speck& speck_;
  ServiceConfig config_;
  PlanCache cache_;
  MemoryBudget budget_;
  /// Serializes the full pipeline on misses; timed so deadline-bounded
  /// requests can give up instead of convoying behind a slow build.
  std::timed_mutex plan_mutex_;

  struct QuarantineState {
    int consecutive_failures = 0;
    Deadline::Clock::time_point until{};  ///< quarantined while now < until
  };
  std::mutex quarantine_mutex_;
  std::unordered_map<std::uint64_t, QuarantineState> quarantine_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> plans_built_{0};
  std::atomic<std::uint64_t> full_runs_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> quarantine_trips_{0};
  std::atomic<std::uint64_t> estimator_fallback_rows_{0};
  std::atomic<std::uint64_t> partition_steals_{0};
  /// Bit pattern of the worst imbalance ratio seen so far. Non-negative
  /// doubles order the same as their bit patterns, so a CAS-max on the
  /// uint64 representation is a lock-free running maximum.
  std::atomic<std::uint64_t> worst_partition_imbalance_bits_{0};
};

}  // namespace speck
