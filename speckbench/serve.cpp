// serve: SpeckService::multiply_into in an open loop. Each client thread
// follows its own seeded Poisson arrival schedule; together they offer a
// fixed total rate. Pattern popularity is Zipf over many small patterns, and
// the service's plan-cache budget is below the sum of all plans, so the Zipf
// tail keeps missing, evicting and rebuilding under the plan mutex beside
// lock-free replays. Latency is timed from each request's due time, so a
// stall also charges the requests queued behind it. Every response is
// checked against its precomputed oracle after the latency stamp.
//
// The traffic constants are fixed (stated in BENCHMARK.json), never
// calibrated at run time: calibration would hide a regression. README.md
// gives each one's source and the runs behind it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/matrix_stats.h"
#include "ref/gustavson.h"
#include "speck/service.h"
#include "yardstick.h"

namespace speckbench {
namespace {

using namespace speck;

// With the one-thread library pool, the most clients that keep pool plus
// client threads within 4 cores.
constexpr int kClients = 3;
// Total over all clients: a quarter of the rate (600/s) at which p99 rose,
// in a sweep of 75..1200/s.
constexpr double kRatePerSecond = 150.0;
// Catches a collapse (at 1200/s, p99 reached 99 ms), not a single
// host stall or a miss queued behind the other clients' plan builds: at
// 50 ms, one request in 2250 missed on 3 of 10 seeds.
constexpr double kLatencyLimitMs = 100.0;
// Below the ~59 MB sum of all plans, so the Zipf tail misses.
constexpr std::size_t kCacheBudgetBytes = 48u << 20;
constexpr int kPatterns = 48;
constexpr int kVariants = 2;
// tools/speckd's default pattern popularity.
constexpr double kZipfExponent = 1.0;
// The yardstick multiplies the first kYardstickPatterns patterns (banded
// and uniform alternate), pausing kYardstickEveryS between measurements:
// about half of one core, beside clients and a pool thread that are idle
// most of the time.
constexpr int kYardstickPatterns = 4;
constexpr double kYardstickEveryS = 0.02;
// Its rate over them at full speed on the recording host.
constexpr double kYardstickGflops = 0.055;

struct Pattern {
  std::vector<Csr> a;  ///< value variants of one pattern; C = A * A
  std::vector<Csr> oracle;
  offset_t products = 0;
};

std::vector<Pattern> make_patterns(std::uint64_t seed) {
  std::vector<Pattern> patterns(kPatterns);
  for (int i = 0; i < kPatterns; ++i) {
    const std::uint64_t s = sub_seed(seed, 1000 + static_cast<std::uint64_t>(i));
    // Fixed row lengths: every pattern has the same product count, so a
    // seed moves which columns meet, not how much work a request is.
    const Csr structure = i % 2 == 0 ? gen::banded(2000, 60, 8, s)
                                     : gen::random_uniform(2000, 2000, 8, s);
    Pattern& p = patterns[static_cast<std::size_t>(i)];
    for (int v = 0; v < kVariants; ++v) {
      p.a.push_back(with_values(structure, sub_seed(s, 7 + static_cast<std::uint64_t>(v))));
      p.oracle.push_back(gustavson_spgemm(p.a.back(), p.a.back()));
    }
    p.products = count_products(structure, structure);
  }
  return patterns;
}

/// One request of a client's schedule.
struct Request {
  double due_s = 0.0;  ///< offset from the loop start
  int pattern = 0;
  int variant = 0;
};

std::vector<Request> make_schedule(std::uint64_t seed, int client, double seconds) {
  Xoshiro256 rng(sub_seed(seed, 5000 + static_cast<std::uint64_t>(client)));
  std::vector<double> cdf(kPatterns);
  double total = 0.0;
  for (int i = 0; i < kPatterns; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[static_cast<std::size_t>(i)] = total;
  }
  // Poisson arrivals conditioned on their count: exactly rate x seconds
  // requests at sorted uniform times, so every run offers the same load.
  const auto count = static_cast<std::size_t>(kRatePerSecond / kClients * seconds);
  std::vector<Request> schedule(count);
  for (Request& req : schedule) {
    req.due_s = rng.next_double() * seconds;
    const double u = rng.next_double() * total;
    const auto rank = static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    req.pattern = std::min(rank, kPatterns - 1);
    req.variant = static_cast<int>(rng.next_below(kVariants));
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Request& x, const Request& y) { return x.due_s < y.due_s; });
  return schedule;
}

/// What one request observed.
struct Outcome {
  Clock::time_point done;  ///< response time
  double latency_s = 0.0;  ///< from due time to response
  double service_s = 0.0;  ///< from send to response
  double lag_s = 0.0;      ///< how late the request was sent
  double done_s = 0.0;     ///< response time, from the loop start
  double sim_s = 0.0;
  offset_t products = 0;
  bool ok = false;
  bool match = false;
  bool replayed = false;
  bool planned = false;
  bool queued = false;
};

/// Runs every client's schedule against `service`, the first `traced_from`
/// seconds untraced and the rest with a span around each request. The
/// calling thread measures the yardstick meanwhile.
std::vector<Outcome> run_clients(SpeckService& service, const std::vector<Pattern>& patterns,
                                 const std::vector<std::vector<Request>>& schedules,
                                 Tracer* tracer, double traced_from, Yardstick& yardstick) {
  std::vector<std::vector<Outcome>> per_client(schedules.size());
  std::atomic<std::uint64_t> request_ids{0};
  std::atomic<std::size_t> running{schedules.size()};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < schedules.size(); ++c) {
    clients.emplace_back([&, c] {
      std::vector<value_t> out;
      for (const Request& req : schedules[c]) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(req.due_s));
        std::this_thread::sleep_until(due);
        const Pattern& p = patterns[static_cast<std::size_t>(req.pattern)];
        const Csr& a = p.a[static_cast<std::size_t>(req.variant)];
        const auto sent = Clock::now();
        SpeckService::Response resp;
        {
          ScopedSpan span(req.due_s >= traced_from ? tracer : nullptr, "serve.request",
                          -1, ++request_ids, static_cast<int>(c) + 1);
          resp = service.multiply_into(a, a, out);
        }
        const auto done = Clock::now();
        Outcome o;
        o.done = done;
        o.latency_s = seconds_between(due, done);
        o.service_s = seconds_between(sent, done);
        o.lag_s = seconds_between(due, sent);
        o.done_s = seconds_between(start, done);
        o.sim_s = resp.seconds;
        o.products = p.products;
        o.ok = resp.ok();
        o.match = o.ok && same_bits(out, p.oracle[static_cast<std::size_t>(req.variant)].values());
        o.replayed = resp.replayed;
        o.planned = resp.planned;
        o.queued = resp.queued;
        per_client[c].push_back(o);
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    yardstick.measure();
    std::this_thread::sleep_for(std::chrono::duration<double>(kYardstickEveryS));
  }
  for (std::thread& t : clients) t.join();
  yardstick.measure();
  std::vector<Outcome> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

RunResult run_serve(const Options& opt, Tracer* tracer) {
  const std::vector<Pattern> patterns = make_patterns(opt.seed);
  std::vector<std::pair<const Csr*, const Csr*>> operands;
  for (int i = 0; i < kYardstickPatterns; ++i) {
    const Csr& a = patterns[static_cast<std::size_t>(i)].a[0];
    operands.push_back({&a, &a});
  }
  Yardstick yardstick(Yardstick::Kernel::kGustavson, std::move(operands), kYardstickGflops);
  std::vector<std::vector<Request>> schedules;
  for (int c = 0; c < kClients; ++c) schedules.push_back(make_schedule(opt.seed, c, opt.seconds));

  SpeckConfig cfg;
  cfg.host_threads = kPoolThreads;  // plan builds
  cfg.partitions = kPartitions;
  cfg.planning = PlanningMode::kExact;
  cfg.plan_cache = false;  // the service keeps its own cache
  ServiceConfig service_cfg;
  service_cfg.cache_limit_bytes = kCacheBudgetBytes;
  // One global LRU: with sharded eviction, which shard the hottest patterns
  // hash to (a function of the seed) would decide the miss rate.
  service_cfg.cache_shards = 1;

  // Stated input: every pattern's plan, built once outside the set-up.
  InputSize input;
  input.patterns = patterns.size();
  double program_ops = 0.0;
  {
    Speck probe(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    for (const Pattern& p : patterns) {
      const SpeckPlan plan = probe.plan(p.a[0], p.a[0]);
      input.plan_bytes += static_cast<double>(plan.byte_size());
      program_ops += static_cast<double>(plan.program.ops());
      input.rows += p.a[0].rows();
      input.nnz += p.a[0].nnz();
      input.products += p.products;
    }
  }
  std::size_t requests = 0;
  for (const auto& s : schedules) requests += s.size();
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "variants=%d clients=%d rate_rps=%g latency_limit_ms=%g zipf=%g "
                "cache_budget_bytes=%zu requests=%zu",
                kVariants, kClients, kRatePerSecond, kLatencyLimitMs, kZipfExponent,
                kCacheBudgetBytes, requests);
  input.extra = extra;
  print_input("serve", input);

  // Set-up: construct the service and warm it with one request per pattern,
  // coldest first, so the hottest plans end up most recently used. Repeated;
  // the last instance serves the timed run.
  std::unique_ptr<Speck> speck;
  std::unique_ptr<SpeckService> service;
  const double setup_s = run_setups(yardstick, [&] {
    service.reset();
    speck = std::make_unique<Speck>(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    service = std::make_unique<SpeckService>(*speck, service_cfg);
    std::vector<value_t> out;
    for (int i = kPatterns - 1; i >= 0; --i) {
      const Csr& a = patterns[static_cast<std::size_t>(i)].a[0];
      if (!service->multiply_into(a, a, out).ok()) throw std::runtime_error("warm-up failed");
    }
  });

  const ServiceStats before = service->stats();
  const double traced_from = tracer != nullptr ? opt.seconds / 3.0 : opt.seconds;
  const std::vector<Outcome> outcomes =
      run_clients(*service, patterns, schedules, tracer, traced_from, yardstick);
  const ServiceStats after = service->stats();

  RunResult out;
  std::vector<double> latency, raw_latency, untraced_latency, traced_latency, lag, replay, miss;
  double flops = 0.0, sim_s = 0.0, good = 0.0, queued = 0.0, duration = 0.0;
  std::size_t index = 0;
  for (const auto& schedule : schedules) {
    for (const Request& req : schedule) {
      const Outcome& o = outcomes[index++];
      latency.push_back(yardstick.scale(o.latency_s, o.done));
      raw_latency.push_back(o.latency_s);
      (req.due_s >= traced_from ? traced_latency : untraced_latency).push_back(o.latency_s);
      lag.push_back(o.lag_s);
      duration = std::max(duration, o.done_s);
      ++out.attempted;
      const bool in_limit = o.latency_s * 1e3 <= kLatencyLimitMs;
      if (!o.match) ++out.failed;
      if (o.ok && !o.match) ++out.mismatches;
      if (!o.match) continue;
      if (!in_limit) ++out.late;
      good += in_limit ? 1.0 : 0.0;
      flops += 2.0 * static_cast<double>(o.products);
      sim_s += o.sim_s;
      queued += o.queued ? 1.0 : 0.0;
      if (o.replayed && !o.queued) replay.push_back(o.service_s);
      if (o.planned) miss.push_back(o.service_s);
    }
  }

  if (tracer == nullptr) {
    yardstick.print();
    std::printf("latency: samples=%zu misses=%zu over_limit=%llu; raw p50_ms=%.6g p99_ms=%.6g\n",
                latency.size(), miss.size(), static_cast<unsigned long long>(out.late),
                percentile(raw_latency, 50.0) * 1e3,
                percentile(raw_latency, 99.0) * 1e3);
    out.set("setup_s", setup_s);
    // Rates over the measured span: first due time to last response.
    out.set("gflops", flops / duration * 1e-9);
    out.set("sim_gflops", sim_s > 0.0 ? flops / sim_s * 1e-9 : 0.0);
    out.set("latency_p50_ms", percentile(latency, 50.0) * 1e3);
    out.set("latency_p99_ms", percentile(latency, 99.0) * 1e3);
    out.set("goodput_rps", good / duration);
    return out;
  }

  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  out.set("speck.service.replays", delta(after.replays, before.replays));
  out.set("speck.service.plans_built", delta(after.plans_built, before.plans_built));
  out.set("speck.service.rejected", delta(after.rejected, before.rejected));
  out.set("speck.service.shed", delta(after.shed, before.shed));
  out.set("speck.service.timed_out", delta(after.timed_out, before.timed_out));
  out.set("speck.service.degraded", delta(after.degraded, before.degraded));
  out.set("speck.service.queued_share", queued / static_cast<double>(out.attempted));
  out.set("speck.service.replay_p50_ms", median(replay) * 1e3);
  out.set("speck.service.miss_p50_ms", median(miss) * 1e3);
  report_plan_cache(before.cache, after.cache, out);
  out.set("speck.plan.program_ops", program_ops);
  out.set("speck.plan.plan_bytes", input.plan_bytes);
  out.set("loadgen.lag_p99_ms", percentile(lag, 99.0) * 1e3);
  out.set("trace.overhead", median(traced_latency) / median(untraced_latency));
  out.set("host.slowdown", yardstick.median_slowdown());
  return out;
}

}  // namespace speckbench
