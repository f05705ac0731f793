// Concurrent-serving benchmark: N client threads issuing a Zipf-distributed
// mix of fixed-pattern multiplies against one shared Speck, comparing the
// mutex-serialized legacy replay (every request takes one global lock around
// Speck::multiply_with_plan) with SpeckService's lock-free replay path
// (multiply_into + one reused buffer per client). Emitted as key=value / point=
// lines for tools/bench_to_json; backs the checked-in BENCH_service.json.
// The two sides' client runs alternate (bench_common.h time_paired): each
// side runs every client's schedule in two halves, each half one whole
// client run, ordered A B then B A. `speedup` is the serialized-over-service
// wall time of that one round (so no quartile keys).
//
// Hard gates (CI runs `bench_service --quick`):
//
//   * every served result must be bit-identical to the Gustavson reference
//     for its pattern (always enforced),
//   * the steady-state replay must perform zero hot-path heap allocations
//     (always enforced, measured single-threaded via the counting
//     operator new, counting_new.cpp),
//   * service throughput must reach --min-speedup (default 3x) over the
//     serialized baseline at 8 client threads — enforced only when the
//     machine has >= 8 hardware cores, since on fewer cores both sides
//     timeshare the same CPUs and the ratio measures the scheduler, not
//     the lock structure (reported unconditionally for the trajectory).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/service.h"
#include "speck/speck.h"

namespace {

using namespace speck;

/// The serving pattern mix: distinct structures of serving-sized matrices.
std::vector<Csr> make_patterns() {
  std::vector<Csr> out;
  out.push_back(gen::banded(512, 16, 10, 11));
  out.push_back(gen::banded(384, 24, 12, 22));
  out.push_back(gen::power_law(400, 400, 8, 2.2, 60, 33));
  out.push_back(gen::power_law(512, 512, 6, 2.0, 40, 44));
  out.push_back(gen::stencil_2d(24, 24));
  out.push_back(gen::block_diagonal(16, 24, 0.5, 55));
  return out;
}

/// CDF of a Zipf(s) distribution over `n` ranks.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t zipf_pick(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Per-request pattern schedule, identical for both sides of the comparison.
std::vector<std::vector<std::size_t>> make_schedules(int threads,
                                                     std::size_t requests,
                                                     std::size_t patterns,
                                                     double zipf_s,
                                                     std::uint64_t seed) {
  const std::vector<double> cdf = zipf_cdf(patterns, zipf_s);
  std::vector<std::vector<std::size_t>> schedules(
      static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 7919u);
    auto& schedule = schedules[static_cast<std::size_t>(t)];
    schedule.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      schedule.push_back(zipf_pick(cdf, rng.next_double()));
    }
  }
  return schedules;
}

struct LatencyReport {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

LatencyReport merge_latencies(std::vector<std::vector<double>>& per_thread) {
  std::vector<double> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LatencyReport rep;
  if (all.empty()) return rep;
  auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * (all.size() - 1));
    return all[idx] * 1e6;
  };
  rep.p50_us = at(0.50);
  rep.p90_us = at(0.90);
  rep.p99_us = at(0.99);
  rep.max_us = all.back() * 1e6;
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::emit, bench::emit_count;
  bench::GateArgs args({1, 2, 8}, {1, 8});
  args.count_flag("--requests", 400, 150)
      .flag("--zipf", 1.0)
      .flag("--min-speedup", 3.0)
      .count_flag("--seed", 42);
  if (!args.parse(argc, argv)) return 2;
  const std::size_t requests = args.count("--requests");  // per client thread
  const double zipf_s = args.get("--zipf");
  const double min_speedup = args.get("--min-speedup");
  const std::uint64_t seed = args.count("--seed");

  const unsigned cores = std::thread::hardware_concurrency();
  const std::vector<Csr> patterns = make_patterns();
  std::vector<Csr> refs;
  for (const Csr& a : patterns) refs.push_back(gustavson_spgemm(a, a));

  std::printf("bench=service\n");
  emit_count("cores", cores);
  emit_count("patterns", patterns.size());
  emit_count("requests_per_thread", requests);
  emit("zipf_s", zipf_s);
  emit("min_speedup", min_speedup);

  return bench::run_gate([&] {
    SpeckConfig cfg;
    cfg.host_threads = 1;  // replay runs serially per client; no nested pools
    cfg.plan_cache = false;
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    SpeckService service(sp);

    // Plan every pattern up front: both sides of the comparison measure pure
    // replay throughput, which is the serving steady state.
    std::vector<std::shared_ptr<const SpeckPlan>> plans;
    for (const Csr& a : patterns) {
      Status st;
      std::shared_ptr<const SpeckPlan> plan = service.plan_for(a, a, &st);
      if (plan == nullptr) throw std::runtime_error("planning failed: " + st.message);
      plans.push_back(std::move(plan));
    }

    // Gate 1 (always): the steady-state replay is allocation-free,
    // live-counted inside the replay kernel at one thread.
    std::size_t hot_allocs = 0;
    std::vector<value_t> buf;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      buf.resize(static_cast<std::size_t>(plans[p]->c_nnz()));
      // warm-up, then measured
      (void)sp.replay_values_into(*plans[p], patterns[p], patterns[p], buf);
      SpeckDiagnostics diag;
      const SpGemmResult r =
          sp.replay_values_into(*plans[p], patterns[p], patterns[p], buf, &diag);
      bench::require_ok(r, "replay", "pattern " + std::to_string(p));
      hot_allocs += diag.numeric.hot_path_allocs;
    }
    emit_count("replay_hot_allocs", hot_allocs);
    bool gate_failed = !bench::zero_alloc_gate(hot_allocs, "replay hot path");

    // Gate 2 (always): every pattern's served values are bit-identical to
    // the Gustavson reference.
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      SpeckService::Response resp = service.multiply_into(patterns[p], patterns[p], buf);
      const std::span<const value_t> want = refs[p].values();
      if (!resp.ok() || resp.c_nnz != refs[p].nnz() ||
          !std::equal(buf.begin(), buf.end(), want.begin(), want.end())) {
        std::fprintf(stderr, "FAIL: pattern %zu served values diverge\n", p);
        gate_failed = true;
      }
    }

    std::mutex legacy_mutex;  // the baseline's single global lock
    // One response buffer per client id, kept warm across rounds and points.
    std::vector<std::vector<value_t>> client_values;
    for (const int threads : args.threads) {
      if (client_values.size() < static_cast<std::size_t>(threads)) {
        client_values.resize(static_cast<std::size_t>(threads));
      }
      const auto schedules =
          make_schedules(threads, requests, patterns.size(), zipf_s, seed);
      bench::emit_point("threads" + std::to_string(threads));
      emit_count("threads", static_cast<std::size_t>(threads));

      std::atomic<std::size_t> errors{0};
      std::vector<std::vector<double>> serialized_lat(static_cast<std::size_t>(threads));
      std::vector<std::vector<double>> service_lat(static_cast<std::size_t>(threads));
      for (std::size_t t = 0; t < serialized_lat.size(); ++t) {
        serialized_lat[t].reserve(requests);
        service_lat[t].reserve(requests);
      }
      // Runs every client over half `h` of its schedule.
      const auto run_clients = [&](std::size_t h, auto&& client) {
        std::vector<std::thread> clients;
        for (int t = 0; t < threads; ++t) {
          clients.emplace_back([&, h, t] {
            const auto client_id = static_cast<std::size_t>(t);
            const std::span<const std::size_t> schedule = schedules[client_id];
            const std::size_t begin = h * requests / 2;
            client(client_id, schedule.subspan(begin, (h + 1) * requests / 2 - begin));
          });
        }
        for (auto& th : clients) th.join();
      };
      // Side A, the baseline: mutex-serialized legacy replay. Every client
      // takes the one lock because the legacy entry point mutates Speck
      // member state. Side B: the service's lock-free replay into the
      // client's own buffer.
      const bench::PairedRatio ratio = bench::time_paired(
          2, 1,
          [&](std::size_t h) {
            run_clients(h, [&](std::size_t t, std::span<const std::size_t> part) {
              for (const std::size_t p : part) {
                const double r0 = bench::steady_seconds();
                std::lock_guard<std::mutex> lock(legacy_mutex);
                if (!sp.multiply_with_plan(*plans[p], patterns[p], patterns[p]).ok()) {
                  errors.fetch_add(1, std::memory_order_relaxed);
                }
                serialized_lat[t].push_back(bench::steady_seconds() - r0);
              }
            });
          },
          [&](std::size_t h) {
            run_clients(h, [&](std::size_t t, std::span<const std::size_t> part) {
              std::vector<value_t>& values = client_values[t];
              for (const std::size_t p : part) {
                const double r0 = bench::steady_seconds();
                if (!service.multiply_into(patterns[p], patterns[p], values).ok()) {
                  errors.fetch_add(1, std::memory_order_relaxed);
                }
                service_lat[t].push_back(bench::steady_seconds() - r0);
              }
            });
          });
      if (errors.load() != 0) {
        std::fprintf(stderr, "FAIL: %zu requests errored\n", errors.load());
        gate_failed = true;
      }

      const LatencyReport serialized = merge_latencies(serialized_lat);
      const LatencyReport served = merge_latencies(service_lat);
      const double total = static_cast<double>(requests) * static_cast<double>(threads);
      const double serialized_wall = ratio.a_seconds;
      const double service_wall = ratio.b_seconds;
      emit("serialized_wall_seconds", serialized_wall);
      emit("service_wall_seconds", service_wall);
      emit("serialized_rps", total / serialized_wall);
      emit("service_rps", total / service_wall);
      bench::emit_ratio("speedup", ratio);
      emit("serialized_p50_us", serialized.p50_us);
      emit("serialized_p99_us", serialized.p99_us);
      emit("service_p50_us", served.p50_us);
      emit("service_p90_us", served.p90_us);
      emit("service_p99_us", served.p99_us);
      emit("service_max_us", served.max_us);
      bench::emit_point("");

      if (threads >= 8 && cores >= 8 &&
          !bench::floor_gate("service speedup", ratio.median, min_speedup)) {
        gate_failed = true;
      }
    }

    const ServiceStats stats = service.stats();
    emit_count("service_requests", stats.requests);
    emit_count("service_replays", stats.replays);
    emit_count("plans_built", stats.plans_built);
    emit_count("admission_rejected", stats.rejected);
    // Lifecycle counters (informational: no deadlines/faults are configured
    // here, so all three must stay 0 — bench_check reports them without
    // gating via --info-metric).
    emit_count("service_shed", stats.shed);
    emit_count("service_timed_out", stats.timed_out);
    emit_count("service_degraded", stats.degraded);
    emit_count("cache_entries", stats.cache.entries);
    emit_count("cache_bytes", stats.cache.bytes);
    if (stats.rejected != 0) {
      std::fprintf(stderr, "FAIL: %llu requests rejected with no budget set\n",
                   static_cast<unsigned long long>(stats.rejected));
      gate_failed = true;
    }
    return gate_failed;
  });
}
