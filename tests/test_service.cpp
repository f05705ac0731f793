// Tests for the concurrent serving layer: SpeckService over a shared Speck.
//
// The service contract is (1) every response is bit-identical to the full
// pipeline (and therefore to the Gustavson reference) no matter how many
// clients race, (2) each distinct structure plans exactly once absent
// eviction, (3) admission control degrades to kResourceExhausted — never to
// an OOM or a wrong answer — and (4) the steady-state replay performs zero
// hot-path heap allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/alloc_counter.h"
#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/service.h"
#include "speck/speck.h"

namespace speck {
namespace {

/// A small corpus of distinct structures, each with fixed values so every
/// replay of a pattern must reproduce one known reference product.
std::vector<Csr> make_patterns() {
  std::vector<Csr> out;
  out.push_back(gen::banded(120, 6, 5, 11));
  out.push_back(gen::banded(96, 12, 7, 22));
  out.push_back(gen::power_law(110, 110, 6, 2.2, 40, 33));
  out.push_back(gen::power_law(140, 140, 5, 2.0, 30, 44));
  return out;
}

std::vector<Csr> make_references(const std::vector<Csr>& patterns) {
  std::vector<Csr> refs;
  for (const Csr& a : patterns) refs.push_back(gustavson_spgemm(a, a));
  return refs;
}

void expect_values_equal(std::span<const value_t> got,
                         std::span<const value_t> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " at nnz index " << i;
  }
}

TEST(ServiceBasics, FirstRequestPlansSecondReplaysBothMatchReference) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  const Csr a = gen::banded(100, 8, 6, 7);
  const Csr ref = gustavson_spgemm(a, a);

  SpeckService::Response first = svc.multiply(a, a);
  ASSERT_TRUE(first.ok()) << first.status.message;
  EXPECT_TRUE(first.planned);
  EXPECT_FALSE(first.replayed);
  auto diff = compare(first.c, ref, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;

  SpeckService::Response second = svc.multiply(a, a);
  ASSERT_TRUE(second.ok()) << second.status.message;
  EXPECT_FALSE(second.planned);
  EXPECT_TRUE(second.replayed);
  diff = compare(second.c, ref, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.plans_built, 1u);
  EXPECT_EQ(stats.replays, 1u);
  EXPECT_EQ(stats.full_runs, 0u);
  EXPECT_EQ(stats.cache.entries, 1u);
}

TEST(ServiceBasics, IntoVariantAgreesWithOwnedVariant) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  const Csr a = gen::power_law(90, 90, 6, 2.1, 30, 5);

  SpeckService::Response owned = svc.multiply(a, a);  // plans
  ASSERT_TRUE(owned.ok()) << owned.status.message;

  std::vector<value_t> buf;
  SpeckService::Response into = svc.multiply_into(a, a, buf);
  ASSERT_TRUE(into.ok()) << into.status.message;
  EXPECT_TRUE(into.replayed);
  EXPECT_EQ(into.c_nnz, owned.c_nnz);
  EXPECT_EQ(into.c.nnz(), 0) << "into-variant must not materialize a Csr";
  expect_values_equal(buf, owned.c.values(), "into vs owned");
}

TEST(ServiceBasics, UnplannableStructureStillServedByFullPipeline) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  // Empty product: zero intermediate products is planned fine — instead use
  // a mismatched-dims request to check the error path maps to kBadInput.
  const Csr a = gen::banded(32, 3, 3, 1);
  const Csr b = gen::banded(48, 3, 3, 2);
  SpeckService::Response resp = svc.multiply(a, b);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, ErrorCode::kBadInput);
}

TEST(ServiceHotPath, SteadyStateReplayHasZeroHotPathAllocs) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  const Csr a = gen::banded(128, 8, 6, 17);

  Status st;
  std::shared_ptr<const SpeckPlan> plan = svc.plan_for(a, a, &st);
  ASSERT_NE(plan, nullptr) << st.message;

  std::vector<value_t> buf(static_cast<std::size_t>(plan->c_nnz()));
  // Warm the leased workspace / buffer once, then measure the steady state.
  const Csr& ca = a;
  ASSERT_TRUE(sp.replay_values_into(*plan, ca, ca, buf).ok());
  for (int i = 0; i < 3; ++i) {
    SpeckDiagnostics diag;
    SpGemmResult r = sp.replay_values_into(*plan, ca, ca, buf, &diag);
    ASSERT_TRUE(r.ok()) << r.failure_reason;
    EXPECT_EQ(diag.numeric.hot_path_allocs, 0u)
        << "steady-state replay allocated on iteration " << i;
  }

  // The into-variant must also retain the caller's buffer capacity: after
  // the first serve, repeat serves resize within capacity.
  std::vector<value_t> served;
  ASSERT_TRUE(svc.multiply_into(a, a, served).ok());
  const std::size_t cap = served.capacity();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.multiply_into(a, a, served).ok());
    EXPECT_EQ(served.capacity(), cap) << "buffer reallocated on iteration " << i;
  }
}

TEST(ServiceStale, ConstReplayRejectsMismatchedInputsWithoutFallback) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(64, 4, 4, 3);
  const Csr other = gen::banded(80, 4, 4, 9);
  SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  const Speck& csp = sp;
  SpeckDiagnostics diag;
  SpGemmResult r = csp.multiply_with_plan(plan, other, other, &diag);
  EXPECT_EQ(r.status, SpGemmStatus::kUnsupported);
  EXPECT_NE(r.failure_reason.find("plan rejected"), std::string::npos)
      << r.failure_reason;
  EXPECT_EQ(r.c.nnz(), 0) << "const replay must not fall back to a full run";
}

TEST(ServiceStale, ConstReplayCatchesSameShapePatternSwapWhenValidating) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  sp.config().validate_inputs = true;
  // Same dims and nnz, different pattern: only the full fingerprint
  // (pattern hashes) can tell them apart.
  const Csr a(4, 4, {0, 2, 3, 4, 4}, {0, 2, 1, 3}, {1.0, 2.0, 3.0, 4.0});
  const Csr b(4, 4, {0, 1, 2, 3, 4}, {1, 2, 3, 0}, {1.0, 2.0, 3.0, 4.0});
  SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  const Speck& csp = sp;
  SpGemmResult r = csp.multiply_with_plan(plan, b, b, nullptr);
  EXPECT_EQ(r.status, SpGemmStatus::kUnsupported);
}

TEST(ServiceAdmission, TinyBudgetRejectsWithResourceExhausted) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.memory_budget_bytes = 64;  // nothing real fits
  SpeckService svc(sp, cfg);
  const Csr a = gen::banded(100, 8, 6, 7);

  SpeckService::Response resp = svc.multiply(a, a);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, ErrorCode::kResourceExhausted);
  EXPECT_GE(svc.stats().rejected, 1u);
  EXPECT_EQ(svc.stats().plans_built, 0u);
}

TEST(ServiceAdmission, QueueModeThrottlesInsteadOfRejecting) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(100, 8, 6, 7);
  ServiceConfig cfg;
  cfg.queue_on_budget = true;
  // Exactly one plan build fits; concurrent replays must take turns.
  cfg.memory_budget_bytes = estimate_plan_bytes(a, a);
  SpeckService svc(sp, cfg);
  const Csr ref = gustavson_spgemm(a, a);

  ASSERT_TRUE(svc.multiply(a, a).ok());  // plan under budget

  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      std::vector<value_t> buf;
      for (int i = 0; i < kIters; ++i) {
        SpeckService::Response resp = svc.multiply_into(a, a, buf);
        if (!resp.ok() || buf != std::vector<value_t>(ref.values().begin(),
                                                      ref.values().end())) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.stats().rejected, 0u);
  EXPECT_EQ(svc.budget().used(), 0u) << "all admitted bytes must be released";
}

TEST(ServiceStress, ConcurrentClientsOverSharedPatternsStayBitIdentical) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  const std::vector<Csr> patterns = make_patterns();
  const std::vector<Csr> refs = make_references(patterns);

  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      std::vector<value_t> buf;
      for (int i = 0; i < kIters; ++i) {
        const std::size_t p = splitmix64(state) % patterns.size();
        const Csr& a = patterns[p];
        const Csr& ref = refs[p];
        bool ok;
        if (i % 2 == 0) {
          SpeckService::Response resp = svc.multiply_into(a, a, buf);
          ok = resp.ok() && resp.c_nnz == ref.nnz() &&
               std::equal(buf.begin(), buf.end(), ref.values().begin(),
                          ref.values().end());
        } else {
          SpeckService::Response resp = svc.multiply(a, a);
          ok = resp.ok() && !compare(resp.c, ref, 0.0).has_value();
        }
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads) * kIters);
  // Default cache budget holds the whole corpus: each pattern plans exactly
  // once, everything else replays.
  EXPECT_EQ(stats.plans_built, patterns.size());
  EXPECT_EQ(stats.replays, stats.requests - stats.plans_built);
  EXPECT_EQ(stats.full_runs, 0u);
  EXPECT_EQ(stats.cache.entries, patterns.size());
  EXPECT_EQ(stats.cache.evictions, 0u);
}

TEST(ServiceStress, EvictionChurnUnderTightCacheBudgetStaysCorrect) {
  const std::vector<Csr> patterns = make_patterns();
  const std::vector<Csr> refs = make_references(patterns);

  // Budget for roughly two of the four plans, one shard so LRU churn is
  // guaranteed (own-shard eviction).
  std::size_t two_plans = 0;
  {
    Speck probe(sim::DeviceSpec::titan_v(), sim::CostModel{});
    SpeckService sizing(probe);
    for (std::size_t p = 0; p < 2; ++p) {
      Status st;
      auto plan = sizing.plan_for(patterns[p], patterns[p], &st);
      ASSERT_NE(plan, nullptr) << st.message;
      two_plans += plan->byte_size();
    }
  }

  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.cache_shards = 1;
  cfg.cache_limit_bytes = two_plans + 128;
  SpeckService svc(sp, cfg);

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::uint64_t state = 0xD1B54A32D192ED03ull * (t + 1);
      std::vector<value_t> buf;
      for (int i = 0; i < kIters; ++i) {
        const std::size_t p = splitmix64(state) % patterns.size();
        SpeckService::Response resp = svc.multiply_into(patterns[p],
                                                        patterns[p], buf);
        const Csr& ref = refs[p];
        const bool ok = resp.ok() && resp.c_nnz == ref.nnz() &&
                        std::equal(buf.begin(), buf.end(),
                                   ref.values().begin(), ref.values().end());
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.requests, stats.replays + stats.plans_built + stats.full_runs);
  EXPECT_GT(stats.cache.evictions, 0u) << "tight budget must churn the cache";
  EXPECT_GT(stats.plans_built, patterns.size()) << "evicted plans re-plan";
  EXPECT_LE(stats.cache.bytes, cfg.cache_limit_bytes);
}

TEST(ServiceDeadlines, ExpiredDeadlineIsRejectedAtAdmission) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  const Csr a = gen::banded(100, 8, 6, 7);

  SpeckService::RequestOptions opts;
  opts.deadline = Deadline::at(Deadline::Clock::now());
  SpeckService::Response resp = svc.multiply(a, a, opts);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_GT(resp.retry_after, 0.0);
  EXPECT_EQ(svc.stats().timed_out, 1u);
  EXPECT_EQ(svc.stats().plans_built, 0u) << "no work for an expired request";
}

TEST(ServiceDeadlines, DeadlineExpiringInBudgetWaitAnswersDeadlineExceeded) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(100, 8, 6, 7);
  ServiceConfig cfg;
  cfg.queue_on_budget = true;
  cfg.memory_budget_bytes = estimate_plan_bytes(a, a);
  SpeckService svc(sp, cfg);

  // Hold the whole budget so the request must queue, then let its deadline
  // lapse inside the wait.
  ASSERT_TRUE(svc.budget().try_acquire(cfg.memory_budget_bytes));
  SpeckService::RequestOptions opts;
  opts.deadline = Deadline::after_ms(25.0);
  SpeckService::Response resp = svc.multiply(a, a, opts);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_GT(resp.retry_after, 0.0);
  EXPECT_EQ(svc.stats().timed_out, 1u);
  svc.budget().release(cfg.memory_budget_bytes);

  // With the pressure gone the same request (fresh deadline) succeeds.
  opts.deadline = Deadline::after_ms(10000.0);
  EXPECT_TRUE(svc.multiply(a, a, opts).ok());
}

TEST(ServiceDegraded, InjectedPlanFailuresServeDegradedAndTripQuarantine) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.faults.plan_fail_mod = 1;  // every plan build fails
  cfg.degraded_mode = true;
  cfg.quarantine_threshold = 2;
  cfg.quarantine_cooldown_ms = 10000.0;  // stays tripped for the whole test
  SpeckService svc(sp, cfg);
  const Csr a = gen::banded(100, 8, 6, 7);
  const Csr ref = gustavson_spgemm(a, a);

  // Two failing builds trip the breaker; later requests bypass the plan
  // mutex entirely. Every response is still exact.
  for (int i = 0; i < 4; ++i) {
    SpeckService::Response resp = svc.multiply(a, a);
    ASSERT_TRUE(resp.ok()) << resp.status.message;
    EXPECT_TRUE(resp.degraded);
    auto diff = compare(resp.c, ref, 0.0);
    EXPECT_FALSE(diff.has_value()) << diff->description;
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.degraded, 4u);
  EXPECT_EQ(stats.quarantine_trips, 1u);
  EXPECT_EQ(stats.plans_built, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

TEST(ServiceDegraded, InjectedPlanFailureWithoutDegradedModeIsStructured) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.faults.plan_fail_mod = 1;
  SpeckService svc(sp, cfg);
  const Csr a = gen::banded(100, 8, 6, 7);

  SpeckService::Response resp = svc.multiply(a, a);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, ErrorCode::kInternal);
  EXPECT_NE(resp.status.message.find("fault injection"), std::string::npos)
      << resp.status.message;
}

TEST(ServiceDegraded, QuarantineCooldownRetriesTheBuild) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.faults.plan_fail_mod = 1;
  cfg.quarantine_threshold = 1;  // trip on the first failure
  cfg.quarantine_cooldown_ms = 30.0;
  SpeckService svc(sp, cfg);
  const Csr a = gen::banded(100, 8, 6, 7);

  // First request fails structurally and trips the breaker.
  EXPECT_EQ(svc.multiply(a, a).status.code, ErrorCode::kInternal);
  EXPECT_EQ(svc.stats().quarantine_trips, 1u);
  // While quarantined the pattern serves degraded (even without
  // degraded_mode: the breaker exists to keep it off the plan mutex).
  SpeckService::Response during = svc.multiply(a, a);
  EXPECT_TRUE(during.ok()) << during.status.message;
  EXPECT_TRUE(during.degraded);
  // After the cooldown the build is retried — and trips again.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(svc.multiply(a, a).status.code, ErrorCode::kInternal);
  EXPECT_EQ(svc.stats().quarantine_trips, 2u);
}

TEST(ServiceHerd, ThunderingHerdOnOneFingerprintPlansExactlyOnce) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  SpeckService svc(sp);
  const Csr a = gen::banded(128, 8, 6, 17);
  const Csr ref = gustavson_spgemm(a, a);

  constexpr int kThreads = 16;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      std::vector<value_t> buf;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      SpeckService::Response resp = svc.multiply_into(a, a, buf);
      const bool ok = resp.ok() && resp.c_nnz == ref.nnz() &&
                      std::equal(buf.begin(), buf.end(),
                                 ref.values().begin(), ref.values().end());
      if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();

  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.plans_built, 1u) << "the herd must build exactly one plan";
  EXPECT_EQ(stats.cache.insertions, 1u) << "no duplicate cache inserts";
  EXPECT_EQ(stats.replays, static_cast<std::uint64_t>(kThreads) - 1);
  EXPECT_EQ(stats.full_runs, 0u);
}

TEST(ServiceChaos, EvictionStormForcesReplansButStaysCorrect) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.faults.evict_every = 3;  // every 3rd request drops the cache
  SpeckService svc(sp, cfg);
  const Csr a = gen::banded(100, 8, 6, 7);
  const Csr ref = gustavson_spgemm(a, a);

  std::vector<value_t> buf;
  for (int i = 0; i < 10; ++i) {
    SpeckService::Response resp = svc.multiply_into(a, a, buf);
    ASSERT_TRUE(resp.ok()) << resp.status.message;
    EXPECT_EQ(resp.c_nnz, ref.nnz());
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(), ref.values().begin(),
                           ref.values().end()))
        << "post-eviction rebuild diverged on iteration " << i;
  }
  const ServiceStats stats = svc.stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_GT(stats.plans_built, 1u) << "storms must force replans";
  EXPECT_EQ(stats.requests, stats.replays + stats.plans_built);
}

TEST(ServiceChaos, AdmissionScaleSqueezeBindsTheBudget) {
  const Csr a = gen::banded(100, 8, 6, 7);
  // Control: the un-squeezed charge fits this budget comfortably.
  ServiceConfig roomy;
  roomy.memory_budget_bytes = 4 * estimate_plan_bytes(a, a);
  {
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
    SpeckService svc(sp, roomy);
    EXPECT_TRUE(svc.multiply(a, a).ok());
    EXPECT_EQ(svc.budget().used(), 0u);
  }
  // Squeeze: the same budget with an 8x inflated charge rejects.
  ServiceConfig squeezed = roomy;
  squeezed.faults.admission_bytes_scale = 8.0;
  {
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
    SpeckService svc(sp, squeezed);
    SpeckService::Response resp = svc.multiply(a, a);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.status.code, ErrorCode::kResourceExhausted);
    EXPECT_EQ(svc.stats().rejected, 1u);
    EXPECT_EQ(svc.budget().used(), 0u) << "failed admission must not leak";
  }
}

TEST(ServiceChaos, InjectedPlanLatencyPlusDeadlineCancelsMidPipeline) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  ServiceConfig cfg;
  cfg.faults.plan_delay_ms = 60.0;  // burns the deadline inside the build
  SpeckService svc(sp, cfg);
  const Csr a = gen::banded(100, 8, 6, 7);

  SpeckService::RequestOptions opts;
  opts.deadline = Deadline::after_ms(20.0);
  SpeckService::Response resp = svc.multiply(a, a, opts);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(svc.stats().timed_out, 1u);
  EXPECT_EQ(svc.stats().plans_built, 0u);
  EXPECT_EQ(svc.budget().used(), 0u);
  // Cancellation says nothing about the input: no quarantine, and the next
  // unhurried request builds the plan normally.
  SpeckService::Response retry = svc.multiply(a, a);
  ASSERT_TRUE(retry.ok()) << retry.status.message;
  EXPECT_TRUE(retry.planned);
}

TEST(MemoryBudgetTest, TryAcquireReleaseAndOversizedSemantics) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.try_acquire(600));
  EXPECT_FALSE(budget.try_acquire(600));  // would exceed
  EXPECT_TRUE(budget.try_acquire(400));
  EXPECT_EQ(budget.used(), 1000u);
  budget.release(600);
  EXPECT_EQ(budget.used(), 400u);
  EXPECT_FALSE(budget.acquire(1001)) << "larger than the whole budget";
  budget.release(400);
  EXPECT_TRUE(budget.acquire(1000));
  budget.release(1000);
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace speck
