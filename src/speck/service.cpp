#include "speck/service.h"

#include <bit>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "ref/gustavson.h"
#include "ref/masked.h"

namespace speck {
namespace {

Status status_from_result(const SpGemmResult& result, const char* where) {
  switch (result.status) {
    case SpGemmStatus::kOk:
      return {};
    case SpGemmStatus::kOutOfMemory:
      return Status{ErrorCode::kResourceExhausted, result.failure_reason,
                    where};
    case SpGemmStatus::kUnsupported:
      return Status{ErrorCode::kBadInput, result.failure_reason, where};
  }
  return Status{ErrorCode::kInternal, "unknown SpGemmStatus", where};
}

Status admission_rejection(std::size_t bytes, const char* where) {
  return Status{ErrorCode::kResourceExhausted,
                "admission control: request needs " + std::to_string(bytes) +
                    " bytes beyond the configured memory budget",
                where};
}

Status shed_status(const char* what) {
  return Status{ErrorCode::kResourceExhausted,
                std::string("load shed: ") + what, "SpeckService"};
}

Status deadline_status(const char* where) {
  return Status{ErrorCode::kDeadlineExceeded,
                "deadline exceeded before the request completed", where};
}

}  // namespace

bool MemoryBudget::try_acquire(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > limit_ - used_ || bytes > limit_) return false;
  used_ += bytes;
  return true;
}

bool MemoryBudget::acquire(std::size_t bytes) {
  return acquire_until(bytes, Deadline::infinite()) == Admit::kAdmitted;
}

MemoryBudget::Admit MemoryBudget::acquire_until(std::size_t bytes,
                                                const Deadline& deadline,
                                                std::size_t max_waiters,
                                                bool* waited) {
  if (waited != nullptr) *waited = false;
  if (bytes > limit_) return Admit::kNeverFits;  // waiting is forever
  std::unique_lock<std::mutex> lock(mutex_);
  const auto fits = [&] { return bytes <= limit_ - used_; };
  if (fits()) {
    used_ += bytes;
    return Admit::kAdmitted;
  }
  // Past this point the request did not get immediate admission.
  if (waited != nullptr) *waited = true;
  if (deadline.expired()) return Admit::kTimedOut;
  if (max_waiters > 0 && waiters_.size() >= max_waiters) {
    // LIFO-shed-oldest: the queue is full, so the request that has waited
    // longest (and burned the most of its own deadline) yields its slot to
    // the newcomer, which still has budget worth spending.
    Waiter* oldest = waiters_.front();
    waiters_.pop_front();
    oldest->shed = true;
    freed_.notify_all();
  }
  Waiter self;
  waiters_.push_back(&self);
  const auto done = [&] { return self.shed || fits(); };
  if (deadline.is_infinite()) {
    freed_.wait(lock, done);
  } else {
    freed_.wait_until(lock, deadline.time(), done);
  }
  // A shed waiter was already unlinked by its shedder; unlink ourselves on
  // the admit/timeout paths.
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (*it == &self) {
      waiters_.erase(it);
      break;
    }
  }
  if (self.shed) return Admit::kShed;
  if (fits()) {
    used_ += bytes;
    return Admit::kAdmitted;
  }
  return Admit::kTimedOut;
}

void MemoryBudget::release(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SPECK_ASSERT(bytes <= used_, "MemoryBudget release exceeds admitted bytes");
    used_ -= bytes;
  }
  freed_.notify_all();
}

std::size_t MemoryBudget::used() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

std::size_t MemoryBudget::waiters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiters_.size();
}

SpeckService::SpeckService(Speck& speck, ServiceConfig config)
    : speck_(speck),
      config_(config),
      cache_(config.cache_shards, config.cache_limit_bytes),
      budget_(config.memory_budget_bytes) {
  validate(config_.faults);
}

std::size_t SpeckService::admission_bytes(std::size_t bytes) const {
  const double scale = config_.faults.admission_bytes_scale;
  if (scale <= 1.0) return bytes;
  // Chaos budget squeeze: inflate the charge (symmetrically at acquire and
  // release — callers admit and release the same scaled value).
  return static_cast<std::size_t>(static_cast<double>(bytes) * scale);
}

Deadline SpeckService::wait_deadline(const Deadline& deadline) const {
  if (config_.max_queue_wait_ms <= 0.0) return deadline;
  return Deadline::sooner(deadline,
                          Deadline::after_ms(config_.max_queue_wait_ms));
}

double SpeckService::retry_hint() const {
  // Pressure-scaled backoff: 10 ms per queued waiter, 10 ms floor.
  return 0.010 * static_cast<double>(budget_.waiters() + 1);
}

MemoryBudget::Admit SpeckService::admit(std::size_t bytes,
                                        const Deadline& deadline,
                                        bool* waited) {
  if (waited != nullptr) *waited = false;
  if (config_.memory_budget_bytes == 0) return MemoryBudget::Admit::kAdmitted;
  if (!config_.queue_on_budget) {
    return budget_.try_acquire(bytes) ? MemoryBudget::Admit::kAdmitted
                                      : MemoryBudget::Admit::kRejected;
  }
  return budget_.acquire_until(bytes, wait_deadline(deadline),
                               config_.max_queued_requests, waited);
}

bool SpeckService::fail_admission(MemoryBudget::Admit outcome,
                                  std::size_t bytes, const Deadline& deadline,
                                  Response* resp) {
  switch (outcome) {
    case MemoryBudget::Admit::kAdmitted:
      return false;
    case MemoryBudget::Admit::kRejected:
    case MemoryBudget::Admit::kNeverFits:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      resp->status = admission_rejection(bytes, "SpeckService");
      break;
    case MemoryBudget::Admit::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      resp->status = shed_status("admission queue overflow");
      break;
    case MemoryBudget::Admit::kTimedOut:
      if (deadline.expired()) {
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        resp->status = deadline_status("budget wait");
      } else {
        // The max_queue_wait cap fired before the request's own deadline.
        shed_.fetch_add(1, std::memory_order_relaxed);
        resp->status = shed_status("budget wait exceeded max_queue_wait");
      }
      break;
  }
  resp->retry_after = retry_hint();
  return true;
}

bool SpeckService::is_quarantined(std::uint64_t key) {
  if (config_.quarantine_threshold <= 0) return false;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  const auto it = quarantine_.find(key);
  return it != quarantine_.end() && Deadline::Clock::now() < it->second.until;
}

void SpeckService::note_plan_failure(std::uint64_t key) {
  if (config_.quarantine_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  QuarantineState& q = quarantine_[key];
  if (++q.consecutive_failures >= config_.quarantine_threshold) {
    q.consecutive_failures = 0;
    q.until = Deadline::Clock::now() +
              std::chrono::duration_cast<Deadline::Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      config_.quarantine_cooldown_ms));
    quarantine_trips_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SpeckService::note_plan_success(std::uint64_t key) {
  if (config_.quarantine_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  quarantine_.erase(key);
}

SpeckService::Response SpeckService::multiply(const Csr& a, const Csr& b,
                                              const RequestOptions& opts) {
  return serve(a, b, nullptr, opts);
}

SpeckService::Response SpeckService::multiply_into(const Csr& a, const Csr& b,
                                                   std::vector<value_t>& out,
                                                   const RequestOptions& opts) {
  return serve(a, b, &out, opts);
}

SpeckService::Response SpeckService::serve_degraded(const Csr& a, const Csr& b,
                                                    std::vector<value_t>* out,
                                                    const char* why) {
  degraded_.fetch_add(1, std::memory_order_relaxed);
  Response resp;
  resp.degraded = true;
  try {
    // The exact host reference every pipeline output is asserted against —
    // degraded responses stay bit-identical to what the full pipeline would
    // have produced. No plan, no cache insert, no budget accounting (the
    // safety valve must not be throttled by the pressure it relieves).
    // A configured mask routes through the masked oracle, mirroring the
    // masked pipeline's semantics exactly.
    const Csr* mask = speck_.config().mask.get();
    Csr c = mask != nullptr ? masked_spgemm(a, b, *mask)
                            : gustavson_spgemm(a, b);
    resp.c_nnz = c.nnz();
    if (out != nullptr) {
      const std::span<const value_t> vals = c.values();
      out->assign(vals.begin(), vals.end());
    } else {
      resp.c = std::move(c);
    }
  } catch (...) {
    resp.status = status_from_current_exception();
    resp.status.message = std::string(why) + ": " + resp.status.message;
    if (resp.status.context.empty()) {
      resp.status.context = "SpeckService::degraded";
    }
  }
  return resp;
}

SpeckService::Response SpeckService::serve(const Csr& a, const Csr& b,
                                           std::vector<value_t>* out,
                                           const RequestOptions& opts) {
  const std::uint64_t request_id =
      requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  Response resp;
  if (opts.deadline.expired()) {
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    resp.status = deadline_status("admission");
    resp.retry_after = retry_hint();
    return resp;
  }
  // Chaos: eviction storm — every Nth request drops the whole cache.
  if (config_.faults.evict_every != 0 &&
      request_id % config_.faults.evict_every == 0) {
    cache_.evict(cache_.entries());
  }
  // A mask on the wrapped Speck's config turns every request into a masked
  // product: the fingerprint (and thus the cache key) carries the mask
  // pattern, so masked and unmasked plans for one structure never collide.
  const PlanFingerprint fp =
      plan_fingerprint(a, b, speck_.config().mask.get(), speck_.config());
  const std::uint64_t key = plan_key_hash(fp);

  // True when the request had to block anywhere — the plan mutex or the
  // budget queue. Surfaced as Response::queued so callers can separate the
  // pure lock-free fast path from convoy/queue casualties.
  bool queued = false;

  std::shared_ptr<const SpeckPlan> plan = cache_.find(fp);
  if (plan == nullptr && is_quarantined(key)) {
    // Circuit-broken pattern: its plan builds keep failing, so keep it away
    // from the plan mutex until the cooldown passes — one poisoned input
    // must not serialize every other client's miss.
    return serve_degraded(a, b, out,
                          "quarantined after repeated plan-build failures");
  }
  if (plan == nullptr) {
    // Miss: planning runs the full mutable pipeline, so it is serialized.
    // The double-checked find means concurrent first requests for one
    // pattern plan it exactly once.
    std::unique_lock<std::timed_mutex> lock(plan_mutex_, std::defer_lock);
    const Deadline mutex_deadline = wait_deadline(opts.deadline);
    if (!lock.try_lock()) {
      queued = true;
      if (mutex_deadline.is_infinite()) {
        lock.lock();
      } else if (!lock.try_lock_until(mutex_deadline.time())) {
        if (opts.deadline.expired()) {
          timed_out_.fetch_add(1, std::memory_order_relaxed);
          resp.status = deadline_status("plan mutex wait");
          resp.retry_after = retry_hint();
          return resp;
        }
        if (config_.degraded_mode) {
          return serve_degraded(a, b, out, "plan mutex contention");
        }
        shed_.fetch_add(1, std::memory_order_relaxed);
        resp.status = shed_status("plan mutex wait exceeded max_queue_wait");
        resp.retry_after = retry_hint();
        return resp;
      }
    }
    plan = cache_.find(fp);
    if (plan == nullptr) {
      if (opts.deadline.expired()) {
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        resp.status = deadline_status("plan mutex acquired");
        resp.retry_after = retry_hint();
        return resp;
      }
      // Chaos: injected planning latency, inside the critical section (the
      // convoy behind a slow build is exactly what it exercises).
      if (config_.faults.plan_delay_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config_.faults.plan_delay_ms));
      }
      // Chaos: deterministic forced plan-build failure by fingerprint hash.
      if (config_.faults.plan_fail_mod != 0 &&
          key % config_.faults.plan_fail_mod == 0) {
        note_plan_failure(key);
        lock.unlock();
        if (config_.degraded_mode) {
          return serve_degraded(a, b, out, "injected plan-build failure");
        }
        resp.status = Status{ErrorCode::kInternal,
                             "fault injection: forced plan-build failure",
                             "SpeckService"};
        return resp;
      }
      SpGemmResult full;
      const Build build =
          build_plan(a, b, opts.deadline, &full, "SpeckService");
      queued = queued || build.waited;
      if (build.admitted != MemoryBudget::Admit::kAdmitted) {
        lock.unlock();
        if (config_.degraded_mode && !opts.deadline.expired()) {
          return serve_degraded(a, b, out, "admission pressure");
        }
        fail_admission(build.admitted, build.bytes, opts.deadline, &resp);
        return resp;
      }
      if (!build.status.ok()) {
        resp.status = build.status;
        if (resp.status.code == ErrorCode::kDeadlineExceeded) {
          // Cancellation says nothing about the input; never quarantine it.
          timed_out_.fetch_add(1, std::memory_order_relaxed);
          resp.retry_after = retry_hint();
        } else {
          note_plan_failure(key);
        }
        return resp;
      }
      note_plan_success(key);
      if (build.plan != nullptr) {
        resp.planned = true;
      } else {
        // No plan came back (an incomplete capture): the full run still
        // answers this request; later requests run the pipeline again.
        full_runs_.fetch_add(1, std::memory_order_relaxed);
      }
      // The planning run already computed C with this request's values —
      // serve it directly, nothing is multiplied twice.
      resp.queued = queued;
      resp.seconds = full.seconds;
      resp.c_nnz = full.c.nnz();
      if (out != nullptr) {
        const std::span<const value_t> vals = full.c.values();
        out->assign(vals.begin(), vals.end());
      } else {
        resp.c = std::move(full.c);
      }
      return resp;
    }
  }

  // Hit: lock-free replay on the calling thread against the immutable plan.
  // Admission covers this request's in-flight response memory — the owned
  // variant materializes a full Csr (pattern copy + values), the into
  // variant only the values buffer. Degraded mode does not apply here: the
  // degraded path would use strictly more memory than the replay it would
  // replace.
  const auto c_nnz = static_cast<std::size_t>(plan->c_nnz());
  const auto rows = static_cast<std::size_t>(plan->fingerprint.a_rows);
  const std::size_t response_bytes = admission_bytes(
      out != nullptr ? c_nnz * sizeof(value_t)
                     : c_nnz * (sizeof(index_t) + sizeof(value_t)) +
                           (rows + 1) * sizeof(offset_t));
  bool budget_waited = false;
  const MemoryBudget::Admit admitted =
      admit(response_bytes, opts.deadline, &budget_waited);
  queued = queued || budget_waited;
  if (fail_admission(admitted, response_bytes, opts.deadline, &resp)) {
    return resp;
  }
  SpGemmResult replayed;
  try {
    if (out != nullptr) {
      out->resize(c_nnz);
      replayed = speck_.replay_values_into(*plan, a, b,
                                           std::span<value_t>(*out), nullptr);
    } else {
      replayed = speck_.multiply_with_plan(*plan, a, b, nullptr);
    }
  } catch (...) {
    if (config_.memory_budget_bytes != 0) budget_.release(response_bytes);
    resp.status = status_from_current_exception();
    return resp;
  }
  if (config_.memory_budget_bytes != 0) budget_.release(response_bytes);
  if (!replayed.ok()) {
    resp.status = status_from_result(replayed, "SpeckService");
    return resp;
  }
  replays_.fetch_add(1, std::memory_order_relaxed);
  resp.replayed = true;
  resp.queued = queued;
  resp.seconds = replayed.seconds;
  resp.c_nnz = plan->c_nnz();
  if (out == nullptr) resp.c = std::move(replayed.c);
  return resp;
}

std::shared_ptr<const SpeckPlan> SpeckService::plan_for(const Csr& a,
                                                        const Csr& b,
                                                        Status* status) {
  const PlanFingerprint fp =
      plan_fingerprint(a, b, speck_.config().mask.get(), speck_.config());
  if (std::shared_ptr<const SpeckPlan> plan = cache_.find(fp)) return plan;
  std::lock_guard<std::timed_mutex> lock(plan_mutex_);
  if (std::shared_ptr<const SpeckPlan> plan = cache_.find(fp)) return plan;
  Build build = build_plan(a, b, Deadline::infinite(), nullptr,
                           "SpeckService::plan_for");
  if (build.admitted != MemoryBudget::Admit::kAdmitted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    build.status = admission_rejection(build.bytes, "SpeckService::plan_for");
  }
  if (status != nullptr && !build.status.ok()) *status = build.status;
  return build.plan;
}

SpeckService::Build SpeckService::build_plan(const Csr& a, const Csr& b,
                                             const Deadline& deadline,
                                             SpGemmResult* full,
                                             const char* where) {
  Build build;
  build.bytes = admission_bytes(estimate_plan_bytes(a, b));
  build.admitted = admit(build.bytes, deadline, &build.waited);
  if (build.admitted != MemoryBudget::Admit::kAdmitted) return build;
  const Csr* mask = speck_.config().mask.get();
  const CancelToken cancel(deadline);
  SpeckPlan built;
  try {
    built = mask != nullptr ? speck_.plan_masked(a, b, *mask, full, &cancel)
                            : speck_.plan(a, b, full, &cancel);
  } catch (...) {
    // Bad inputs (dimension mismatch, corrupt CSR) throw from the
    // pipeline; a service must answer, not unwind a client thread.
    build.status = status_from_current_exception();
  }
  if (config_.memory_budget_bytes != 0) budget_.release(build.bytes);
  if (!build.status.ok()) return build;
  if (full != nullptr ? !full->ok() : !built.complete) {
    build.status = full != nullptr
                       ? status_from_result(*full, where)
                       : Status{ErrorCode::kBadInput, built.incomplete_reason,
                                where};
    return build;
  }
  note_build_diagnostics(built.diagnostics);
  if (built.complete) {
    build.plan =
        cache_.insert(std::make_shared<const SpeckPlan>(std::move(built)));
    plans_built_.fetch_add(1, std::memory_order_relaxed);
  }
  return build;
}

void SpeckService::note_build_diagnostics(const SpeckDiagnostics& diagnostics) {
  estimator_fallback_rows_.fetch_add(
      static_cast<std::uint64_t>(
          diagnostics.numeric.estimate_underflow_rows),
      std::memory_order_relaxed);
  partition_steals_.fetch_add(
      static_cast<std::uint64_t>(diagnostics.partition.steal_count()),
      std::memory_order_relaxed);
  const double ratio = diagnostics.partition.imbalance_ratio();
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(ratio);
  std::uint64_t seen =
      worst_partition_imbalance_bits_.load(std::memory_order_relaxed);
  while (bits > seen &&
         !worst_partition_imbalance_bits_.compare_exchange_weak(
             seen, bits, std::memory_order_relaxed)) {
  }
}

ServiceStats SpeckService::stats() const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.replays = replays_.load(std::memory_order_relaxed);
  out.plans_built = plans_built_.load(std::memory_order_relaxed);
  out.full_runs = full_runs_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.timed_out = timed_out_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.quarantine_trips = quarantine_trips_.load(std::memory_order_relaxed);
  out.estimator_fallback_rows =
      estimator_fallback_rows_.load(std::memory_order_relaxed);
  out.partition_steals = partition_steals_.load(std::memory_order_relaxed);
  out.worst_partition_imbalance = std::bit_cast<double>(
      worst_partition_imbalance_bits_.load(std::memory_order_relaxed));
  out.cache = cache_.stats();
  return out;
}

}  // namespace speck
