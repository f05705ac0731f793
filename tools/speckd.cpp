// speckd — concurrent SpGEMM traffic driver for the serving layer:
//
//   speckd [--threads N] [--requests N] [--patterns K] [--zipf S]
//          [--cache-mb MB] [--budget-mb MB] [--queue] [--seed N]
//          [--max-queue N] [--max-wait-ms MS] [--deadline-ms MS]
//          [--degraded] [--fault-spec SPEC] [--chaos]
//          [--chaos-p99-factor F] [--planning MODE] [--validate] [--check]
//
// Spawns N client threads issuing a Zipf(S)-distributed mix of K distinct
// fixed-pattern multiplies against one SpeckService (sharded plan cache,
// lock-free replay, admission control) and reports throughput, merged
// latency percentiles and the service counters as key=value lines.
//
// `--check` verifies every served response against the Gustavson reference
// inside the client threads, as requests complete: on a mismatch the first
// failing request's fingerprint is recorded atomically, printed, and the
// process exits 1 — nothing is lost under concurrency. `--budget-mb`
// enables admission control; with `--queue` over-budget requests wait for
// capacity (bounded by `--max-queue` / `--max-wait-ms`) instead of failing
// with kResourceExhausted. `--deadline-ms` attaches a per-request deadline.
//
// `--chaos` runs the same schedule twice: a fault-free baseline phase, then
// a chaos phase with serving faults injected (forced plan-build failures,
// injected planning latency, admission budget squeeze, eviction storms —
// override via `--fault-spec`) under a tight budget, bounded queueing,
// degraded mode and per-request deadlines. The chaos phase gates on:
// every response either succeeds bit-identically (checked with --check) or
// carries a structured status (kDeadlineExceeded / kResourceExhausted /
// injected kInternal), and p99 latency of successful requests stays within
// `--chaos-p99-factor` (default 2.0) of the baseline p99.
//
// Exit codes follow the taxonomy (common/check.h): 0 ok, 1 result mismatch
// or request failure, 2 usage, 3 bad input, 4 resource exhausted (every
// request rejected), 5 internal error, 7 deadline exceeded.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "ref/masked.h"
#include "speck/plan_cache.h"
#include "speck/service.h"
#include "speck/speck.h"

namespace {

using namespace speck;

void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "\n"
      "options:\n"
      "  --threads N          client threads issuing requests (default 4)\n"
      "  --requests N         requests per client thread (default 500)\n"
      "  --patterns K         distinct matrix structures in the mix (default 6)\n"
      "  --zipf S             Zipf exponent of the pattern popularity (default 1.0;\n"
      "                       0 = uniform)\n"
      "  --cache-mb MB        plan-cache byte budget in MiB (default 512)\n"
      "  --budget-mb MB       global admission-control budget in MiB (default off)\n"
      "  --queue              queue over-budget requests instead of rejecting\n"
      "  --max-queue N        bounded admission queue: max budget waiters\n"
      "                       (LIFO-shed-oldest on overflow; default 0 = unbounded)\n"
      "  --max-wait-ms MS     cap any single wait; over-cap requests are shed\n"
      "                       (default 0 = no cap)\n"
      "  --deadline-ms MS     per-request deadline (default 0 = none)\n"
      "  --degraded           serve pressure/quarantine misses via the degraded\n"
      "                       path instead of failing them\n"
      "  --fault-spec SPEC    serving fault spec (docs/robustness.md grammar)\n"
      "  --chaos              run a fault-free baseline phase, then a chaos phase\n"
      "                       with injected serving faults; gate statuses and p99\n"
      "  --chaos-p99-factor F chaos p99 budget as a multiple of baseline p99\n"
      "                       (default 2.0)\n"
      "  --planning MODE      plan construction mode: auto|exact|estimated\n"
      "                       (default auto). Estimated planning shrinks the\n"
      "                       serialized cold-miss build window; responses are\n"
      "                       bit-identical either way, and rows whose sampled\n"
      "                       estimate underflowed are reported as\n"
      "                       estimator_fallback_rows\n"
      "  --partitions N       two-level executor partitions for cold-miss plan\n"
      "                       builds (default 1 = flat). N > 1 also lifts the\n"
      "                       build thread pinning so builds use the process\n"
      "                       default pool (SPECK_THREADS); replays stay on the\n"
      "                       calling client thread either way. Steal and\n"
      "                       imbalance telemetry lands in partition_steals /\n"
      "                       worst_partition_imbalance\n"
      "  --masked             serve output-masked products C = (p*p) .* M\n"
      "                       against one shared band mask M (patterns are\n"
      "                       forced to a single size so M applies to all);\n"
      "                       masked plans carry the mask pattern hash in\n"
      "                       their fingerprint and replay values-only like\n"
      "                       unmasked ones. --check verifies against the\n"
      "                       masked-Gustavson oracle\n"
      "  --seed N             traffic-schedule seed (default 42)\n"
      "  --validate           re-validate CSR invariants and full fingerprints\n"
      "  --check              verify every served response against the Gustavson\n"
      "                       reference as it completes (exit 1 on mismatch,\n"
      "                       printing the failing fingerprint)\n",
      prog);
}

/// K distinct serving-sized structures, cycling over the generator families.
/// `force_n` != 0 pins every pattern to an n x n shape (masked serving needs
/// one shared mask to apply to all patterns).
std::vector<Csr> make_patterns(std::size_t count, std::uint64_t seed,
                               index_t force_n = 0) {
  std::vector<Csr> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = seed + 1000 * i;
    const index_t n =
        force_n != 0 ? force_n : static_cast<index_t>(256 + 64 * (i % 5));
    switch (i % 4) {
      case 0:
        out.push_back(gen::banded(n, 16, 10, s));
        break;
      case 1:
        out.push_back(gen::power_law(n, n, 7, 2.1, 50, s));
        break;
      case 2:
        out.push_back(force_n != 0
                          ? gen::banded(n, 24, 12, s + 1)
                          : gen::stencil_2d(16 + static_cast<index_t>(i), 16));
        break;
      default:
        out.push_back(force_n != 0 ? gen::power_law(n, n, 9, 1.8, 60, s + 2)
                                   : gen::block_diagonal(12, 20, 0.5, s));
        break;
    }
  }
  return out;
}

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

void emit(const std::string& key, double value) {
  std::printf("%s=%.6g\n", key.c_str(), value);
}
void emit_count(const std::string& key, std::size_t value) {
  std::printf("%s=%zu\n", key.c_str(), value);
}

struct PhaseOptions {
  int threads = 4;
  std::size_t requests = 500;
  double deadline_ms = 0.0;  ///< 0 = no per-request deadline
  std::uint64_t seed = 42;
  bool check = false;
  /// Corrupts the first served value of client 0 before verification —
  /// proves the --check failure path reports the fingerprint and exits
  /// nonzero (used by the speckd_check_detects ctest).
  bool inject_check_mismatch = false;
};

struct PhaseResult {
  std::vector<double> all_lat;  ///< every request, seconds
  std::vector<double> ok_lat;   ///< successful requests only, seconds
  /// Successful UNQUEUED plan replays only — the pure lock-free fast path:
  /// what the chaos tail-latency gate compares. Excludes plan builds
  /// (carry injected planning latency), degraded serves (pay the reference
  /// multiply by design) and any request that blocked on the plan mutex or
  /// the budget queue (a convoy behind a faulted build is a fault casualty,
  /// and its wait is already bounded by max_queue_wait / the deadline).
  std::vector<double> replay_lat;
  std::size_t ok = 0;
  std::size_t degraded_ok = 0;          ///< subset of ok served degraded
  std::size_t deadline_exceeded = 0;    ///< kDeadlineExceeded answers
  std::size_t resource_exhausted = 0;   ///< kResourceExhausted answers
  std::size_t injected_failures = 0;    ///< kInternal from fault injection
  std::size_t unexpected_failures = 0;  ///< anything else — always a bug
  std::size_t check_failures = 0;
  bool have_bad_fingerprint = false;
  std::uint64_t first_bad_fingerprint = 0;
  double wall = 0.0;
  ServiceStats stats;
};

/// Runs one traffic phase (the whole schedule) against a fresh service.
PhaseResult run_phase(SpeckService& service, const std::vector<Csr>& patterns,
                      const std::vector<Csr>* refs,
                      const std::vector<std::uint64_t>& fingerprints,
                      const std::vector<double>& cdf,
                      const PhaseOptions& opts) {
  PhaseResult out;
  const auto threads = static_cast<std::size_t>(opts.threads);
  std::vector<PhaseResult> per_thread(threads);
  std::mutex first_bad_mutex;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      PhaseResult& mine = per_thread[t];
      Xoshiro256 rng(opts.seed + static_cast<std::uint64_t>(t) * 7919u);
      mine.all_lat.reserve(opts.requests);
      // Each client reuses one response buffer (zero allocations once warm).
      std::vector<value_t> buf;
      for (std::size_t i = 0; i < opts.requests; ++i) {
        const std::size_t p = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), rng.next_double()) -
            cdf.begin());
        SpeckService::RequestOptions req;
        if (opts.deadline_ms > 0.0) {
          req.deadline = Deadline::after_ms(opts.deadline_ms);
        }
        const auto r0 = std::chrono::steady_clock::now();
        SpeckService::Response resp =
            service.multiply_into(patterns[p], patterns[p], buf, req);
        const double lat = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - r0)
                               .count();
        mine.all_lat.push_back(lat);
        if (resp.ok()) {
          ++mine.ok;
          mine.ok_lat.push_back(lat);
          if (resp.replayed && !resp.queued) mine.replay_lat.push_back(lat);
          if (resp.degraded) ++mine.degraded_ok;
          if (refs != nullptr) {
            if (opts.inject_check_mismatch && t == 0 && i == 0 &&
                !buf.empty()) {
              buf[0] += 1.0;  // deliberate corruption; --check must catch it
            }
            const Csr& ref = (*refs)[p];
            const std::span<const value_t> want = ref.values();
            if (resp.c_nnz != ref.nnz() ||
                !std::equal(buf.begin(), buf.end(), want.begin(),
                            want.end())) {
              ++mine.check_failures;
              std::lock_guard<std::mutex> lock(first_bad_mutex);
              if (!out.have_bad_fingerprint) {
                out.have_bad_fingerprint = true;
                out.first_bad_fingerprint = fingerprints[p];
              }
            }
          }
        } else {
          switch (resp.status.code) {
            case ErrorCode::kDeadlineExceeded:
              ++mine.deadline_exceeded;
              break;
            case ErrorCode::kResourceExhausted:
              ++mine.resource_exhausted;
              break;
            case ErrorCode::kInternal:
              if (resp.status.message.find("fault injection") !=
                  std::string::npos) {
                ++mine.injected_failures;
              } else {
                ++mine.unexpected_failures;
              }
              break;
            default:
              ++mine.unexpected_failures;
              break;
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  out.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();

  for (const PhaseResult& mine : per_thread) {
    out.all_lat.insert(out.all_lat.end(), mine.all_lat.begin(),
                       mine.all_lat.end());
    out.ok_lat.insert(out.ok_lat.end(), mine.ok_lat.begin(),
                      mine.ok_lat.end());
    out.replay_lat.insert(out.replay_lat.end(), mine.replay_lat.begin(),
                          mine.replay_lat.end());
    out.ok += mine.ok;
    out.degraded_ok += mine.degraded_ok;
    out.deadline_exceeded += mine.deadline_exceeded;
    out.resource_exhausted += mine.resource_exhausted;
    out.injected_failures += mine.injected_failures;
    out.unexpected_failures += mine.unexpected_failures;
    out.check_failures += mine.check_failures;
  }
  std::sort(out.all_lat.begin(), out.all_lat.end());
  std::sort(out.ok_lat.begin(), out.ok_lat.end());
  std::sort(out.replay_lat.begin(), out.replay_lat.end());
  out.stats = service.stats();
  return out;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<std::size_t>(q *
                                         static_cast<double>(sorted.size() - 1))];
}

/// key=value report for one phase; `prefix` is "" or "chaos_".
void emit_phase(const std::string& prefix, const PhaseResult& r) {
  emit_count(prefix + "requests", r.stats.requests);
  emit(prefix + "wall_seconds", r.wall);
  emit(prefix + "throughput_rps",
       static_cast<double>(r.stats.requests) / r.wall);
  emit(prefix + "p50_us", percentile(r.all_lat, 0.50) * 1e6);
  emit(prefix + "p90_us", percentile(r.all_lat, 0.90) * 1e6);
  emit(prefix + "p99_us", percentile(r.all_lat, 0.99) * 1e6);
  emit(prefix + "max_us", r.all_lat.empty() ? 0.0 : r.all_lat.back() * 1e6);
  emit_count(prefix + "replays", r.stats.replays);
  emit_count(prefix + "plans_built", r.stats.plans_built);
  emit_count(prefix + "full_runs", r.stats.full_runs);
  emit_count(prefix + "admission_rejected", r.stats.rejected);
  emit_count(prefix + "shed", r.stats.shed);
  emit_count(prefix + "timed_out", r.stats.timed_out);
  emit_count(prefix + "degraded", r.stats.degraded);
  emit_count(prefix + "quarantine_trips", r.stats.quarantine_trips);
  emit_count(prefix + "estimator_fallback_rows", r.stats.estimator_fallback_rows);
  emit_count(prefix + "partition_steals", r.stats.partition_steals);
  emit(prefix + "worst_partition_imbalance", r.stats.worst_partition_imbalance);
  emit_count(prefix + "deadline_exceeded", r.deadline_exceeded);
  emit_count(prefix + "resource_exhausted", r.resource_exhausted);
  emit_count(prefix + "injected_failures", r.injected_failures);
  emit_count(prefix + "failed", r.unexpected_failures);
  emit_count(prefix + "cache_entries", r.stats.cache.entries);
  emit_count(prefix + "cache_bytes", r.stats.cache.bytes);
  emit_count(prefix + "cache_hits", r.stats.cache.hits);
  emit_count(prefix + "cache_evictions", r.stats.cache.evictions);
}

/// Nonzero exit for check/unexpected failures of a phase; 0 when clean.
int gate_phase(const char* phase, const PhaseResult& r) {
  if (r.check_failures != 0) {
    std::fprintf(stderr,
                 "FAIL [%s]: %zu served responses diverge from the Gustavson "
                 "reference; first failing fingerprint 0x%016llx\n",
                 phase, r.check_failures,
                 static_cast<unsigned long long>(r.first_bad_fingerprint));
    return 1;
  }
  if (r.unexpected_failures != 0) {
    std::fprintf(stderr,
                 "FAIL [%s]: %zu requests failed with an unexpected status\n",
                 phase, r.unexpected_failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 4;
  std::size_t requests = 500;
  std::size_t pattern_count = 6;
  double zipf_s = 1.0;
  std::size_t cache_mb = 512;
  std::size_t budget_mb = 0;
  bool queue = false;
  bool validate = false;
  bool check = false;
  bool chaos = false;
  bool degraded = false;
  bool masked = false;
  bool inject_check_mismatch = false;
  std::size_t max_queue = 0;
  double max_wait_ms = 0.0;
  double deadline_ms = 0.0;
  double chaos_p99_factor = 2.0;
  PlanningMode planning = PlanningMode::kAuto;
  int partitions = 1;
  std::string fault_spec_text;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--patterns") == 0 && i + 1 < argc) {
      pattern_count = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--zipf") == 0 && i + 1 < argc) {
      zipf_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      cache_mb = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc) {
      budget_mb = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      queue = true;
    } else if (std::strcmp(argv[i], "--max-queue") == 0 && i + 1 < argc) {
      max_queue = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-wait-ms") == 0 && i + 1 < argc) {
      max_wait_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--degraded") == 0) {
      degraded = true;
    } else if (std::strcmp(argv[i], "--masked") == 0) {
      masked = true;
    } else if (std::strcmp(argv[i], "--fault-spec") == 0 && i + 1 < argc) {
      fault_spec_text = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--chaos-p99-factor") == 0 &&
               i + 1 < argc) {
      chaos_p99_factor = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--planning") == 0 && i + 1 < argc) {
      const auto parsed = parse_planning_mode(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "--planning: unknown mode '%s' "
                     "(expected auto|exact|estimated)\n",
                     argv[i]);
        return 3;
      }
      planning = *parsed;
    } else if (std::strcmp(argv[i], "--inject-check-mismatch") == 0) {
      inject_check_mismatch = true;  // test hook for the --check failure path
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      partitions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0], stdout);
      return 0;
    } else {
      print_usage(argv[0], stderr);
      return 2;
    }
  }
  if (threads < 1 || requests == 0 || pattern_count == 0 ||
      chaos_p99_factor <= 0.0 || partitions < 1) {
    print_usage(argv[0], stderr);
    return 2;
  }

  try {
    // Masked serving shares ONE output mask across the whole mix, so every
    // pattern must have the mask's shape.
    const index_t masked_n = 320;
    const std::vector<Csr> patterns =
        make_patterns(pattern_count, seed, masked ? masked_n : 0);
    const std::vector<double> cdf = zipf_cdf(pattern_count, zipf_s);
    std::shared_ptr<const Csr> mask;
    if (masked) {
      mask = std::make_shared<const Csr>(
          gen::banded(masked_n, 32, 20, seed + 999));
    }

    SpeckConfig cfg;
    cfg.mask = mask;
    cfg.host_threads = 1;  // replays run serially per client thread
    cfg.plan_cache = false;  // the service owns the cache
    cfg.partitions = partitions;
    if (partitions > 1) {
      // The two-level executor needs the real pool to form teams; replays
      // are unaffected (they always run on the calling client thread).
      cfg.host_threads = 0;
    }
    cfg.validate_inputs = validate;
    cfg.planning = planning;

    // Per-pattern reference products and fingerprint keys, computed up
    // front so mid-run verification is a pure compare.
    std::vector<Csr> refs;
    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(pattern_count);
    {
      Speck fp_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      for (const Csr& p : patterns) {
        fingerprints.push_back(plan_key_hash(
            mask != nullptr
                ? plan_fingerprint_masked(p, p, *mask, fp_speck.config())
                : plan_fingerprint(p, p, fp_speck.config())));
      }
    }
    if (check) {
      refs.reserve(pattern_count);
      for (const Csr& p : patterns) {
        refs.push_back(mask != nullptr ? masked_spgemm(p, p, *mask)
                                       : gustavson_spgemm(p, p));
      }
    }
    const std::vector<Csr>* refs_ptr = check ? &refs : nullptr;

    ServiceConfig svc_cfg;
    svc_cfg.cache_limit_bytes = cache_mb << 20;
    svc_cfg.memory_budget_bytes = budget_mb << 20;
    svc_cfg.queue_on_budget = queue;
    svc_cfg.max_queued_requests = max_queue;
    svc_cfg.max_queue_wait_ms = max_wait_ms;
    svc_cfg.degraded_mode = degraded;
    if (!fault_spec_text.empty() && !chaos) {
      svc_cfg.faults = parse_fault_spec(fault_spec_text);
    }

    // Chaos service shape: the user's config hardened with a tight budget,
    // bounded queueing, degraded mode, quarantine and a deadline. The
    // baseline phase runs the SAME shape with faults off — the p99 gate
    // must compare one system with and without faults, not two different
    // services.
    ServiceConfig chaos_cfg = svc_cfg;
    PhaseOptions chaos_opts;
    if (chaos) {
      chaos_cfg.faults = parse_fault_spec(
          fault_spec_text.empty()
              ? "plan-fail-mod=3,plan-delay-ms=2,admission-scale=4,"
                "evict-every=64"
              : fault_spec_text);
      if (chaos_cfg.memory_budget_bytes == 0) {
        chaos_cfg.memory_budget_bytes = 2u << 20;  // tight: squeeze must bind
      }
      chaos_cfg.queue_on_budget = true;
      if (chaos_cfg.max_queued_requests == 0) {
        chaos_cfg.max_queued_requests = 4;
      }
      if (chaos_cfg.max_queue_wait_ms == 0.0) {
        chaos_cfg.max_queue_wait_ms = 25.0;
      }
      chaos_cfg.degraded_mode = true;
      chaos_cfg.quarantine_threshold = 2;
      chaos_cfg.quarantine_cooldown_ms = 100.0;
    }

    PhaseOptions phase_opts;
    phase_opts.threads = threads;
    phase_opts.requests = requests;
    phase_opts.deadline_ms = deadline_ms;
    phase_opts.seed = seed;
    phase_opts.check = check;
    phase_opts.inject_check_mismatch = inject_check_mismatch;
    if (chaos) {
      chaos_opts = phase_opts;
      chaos_opts.inject_check_mismatch = false;
      if (chaos_opts.deadline_ms == 0.0) chaos_opts.deadline_ms = 1000.0;
      // The baseline phase mirrors the chaos phase in everything but the
      // faults themselves.
      phase_opts.deadline_ms = chaos_opts.deadline_ms;
    }

    // Phase 1 — the configured run (with --chaos: the fault-free baseline
    // of the hardened service shape).
    ServiceConfig base_cfg = chaos ? chaos_cfg : svc_cfg;
    if (chaos) base_cfg.faults = FaultSpec{};
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    SpeckService service(sp, base_cfg);
    const PhaseResult base =
        run_phase(service, patterns, refs_ptr, fingerprints, cdf, phase_opts);

    std::printf("tool=speckd\n");
    emit_count("threads", static_cast<std::size_t>(threads));
    emit_count("patterns", pattern_count);
    emit_count("partitions", static_cast<std::size_t>(partitions));
    emit("zipf_s", zipf_s);
    emit_phase("", base);

    if (int rc = gate_phase("baseline", base); rc != 0) return rc;

    if (!chaos) {
      if (check) std::printf("check=pass\n");
      if (base.stats.requests != 0 &&
          base.resource_exhausted ==
              static_cast<std::size_t>(base.stats.requests)) {
        std::fprintf(stderr,
                     "every request was rejected by admission control\n");
        return exit_code(ErrorCode::kResourceExhausted);
      }
      return 0;
    }

    // Phase 2 — chaos: same schedule, fresh service, serving faults firing
    // under the hardened shape the baseline just measured.
    Speck chaos_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    SpeckService chaos_service(chaos_speck, chaos_cfg);
    const PhaseResult storm = run_phase(chaos_service, patterns, refs_ptr,
                                        fingerprints, cdf, chaos_opts);

    emit_phase("chaos_", storm);

    if (int rc = gate_phase("chaos", storm); rc != 0) return rc;

    // Tail-latency gate: p99 of non-faulted chaos requests within the
    // factor of the baseline's. "Non-faulted" means the pure lock-free
    // fast path — successful replays that never blocked (see PhaseResult::
    // replay_lat). Requests a fault DID touch are covered by the other
    // gates: their waits are bounded by max_queue_wait and the deadline,
    // and their failures must be structured. The absolute slack absorbs
    // scheduler noise: with a few hundred samples p99 is nearly the max,
    // and single-digit-ms preemption spikes show up on the fast path even
    // in fault-free runs (plan builds occupying sibling cores). 5 ms sits
    // well below the tails the gate exists to catch — a queue convoy is
    // bounded only by max_queue_wait / the deadline, tens of ms. Needs
    // enough samples on both sides to be a meaningful percentile; sparse
    // samples only warn.
    constexpr std::size_t kMinSamples = 50;
    constexpr double kAbsoluteSlackSeconds = 5e-3;
    if (base.replay_lat.size() >= kMinSamples &&
        storm.replay_lat.size() >= kMinSamples) {
      const double base_p99 = percentile(base.replay_lat, 0.99);
      const double storm_p99 = percentile(storm.replay_lat, 0.99);
      emit("chaos_replay_p99_us", storm_p99 * 1e6);
      emit("baseline_replay_p99_us", base_p99 * 1e6);
      if (base_p99 > 0.0 && storm_p99 > chaos_p99_factor * base_p99 &&
          storm_p99 - base_p99 > kAbsoluteSlackSeconds) {
        std::fprintf(stderr,
                     "FAIL [chaos]: non-faulted p99 %.1f us exceeds "
                     "%.2fx the baseline p99 %.1f us\n",
                     storm_p99 * 1e6, chaos_p99_factor, base_p99 * 1e6);
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "note: p99 gate skipped (baseline %zu / chaos %zu "
                   "successful replays; need %zu each)\n",
                   base.replay_lat.size(), storm.replay_lat.size(),
                   kMinSamples);
    }
    if (check) std::printf("check=pass\n");
    return 0;
  } catch (...) {
    return exit_code(status_from_current_exception().code);
  }
}
