// runspeck — the command-line driver matching the paper artifact's
// runspECK executable (Appendix A.2):
//
//   runspeck <path-to-matrix.mtx> [config.ini] [--threads N]
//            [--fault-spec SPEC] [--validate] [--simd BACKEND]
//            [--planning MODE] [--partitions N]
//
// `--threads N` sets the host thread pool the pipeline stages run on (the
// result and the simulated times are bit-identical for every N; only host
// wall-clock changes). Defaults to SPECK_THREADS / hardware concurrency.
//
// Recognized config.ini options (all optional, artifact-compatible names):
//   TrackCompleteTimes   = true|false   print end-to-end timing (default on)
//   TrackIndividualTimes = true|false   print the per-stage breakdown
//   CompareResult        = true|false   validate against the cuSPARSE-like
//                                       baseline, error on mismatch
//   TraceLaunches        = true|false   print the per-launch execution trace
//   IterationsWarmUp     = <n>          warm-up iterations (default 1)
//   IterationsExecution  = <n>          timed iterations (default 5)
//   InputFile            = <path>       overrides the command-line matrix
//   Threads              = <n>          host threads (--threads wins)
//   PlanCache            = true|false   transparent structure-reuse cache
//                                       (default on; see docs/performance.md)
//   PlanCacheLimitBytes  = <n>          plan-cache size cap in bytes
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cusparse_like.h"
#include "baselines/suite.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/ini.h"
#include "common/thread_pool.h"
#include "matrix/io_mtx.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/masked.h"
#include "speck/speck.h"

namespace {

void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s <path-to-matrix.mtx> [config.ini] [options]\n"
      "\n"
      "options:\n"
      "  --threads N        host thread pool size (results are identical\n"
      "                     for every N; default SPECK_THREADS or all cores)\n"
      "  --fault-spec SPEC  deterministic fault injection; SPEC is a comma-\n"
      "                     separated list of key=value pairs:\n"
      "                       estimate-scale=<f>      scale row estimates\n"
      "                       estimate-jitter=<f>     per-row jitter in [0,1)\n"
      "                       seed=<u64>              jitter seed\n"
      "                       hash-overflow-after=<n> spill maps after n keys\n"
      "                       scratchpad-scale=<f>    shrink scratchpads (0,1]\n"
      "                       memory-budget-mb=<f>    cap simulated memory\n"
      "                       estimator-scale=<f>     scale sampled NNZ\n"
      "                                               estimates (forces the\n"
      "                                               estimated-planning\n"
      "                                               fallback when < 1)\n"
      "                     e.g. --fault-spec estimate-scale=0.25,seed=7\n"
      "  --validate         re-validate CSR invariants at the API boundary\n"
      "  --simd BACKEND     SIMD backend for the kernel hot loops:\n"
      "                     auto|scalar|sse|neon (default auto — the\n"
      "                     SPECK_SIMD env var, then CPU detection). Results\n"
      "                     are bit-identical for every backend\n"
      "  --planning MODE    plan construction mode: auto|exact|estimated\n"
      "                     (default auto — the SPECK_PLANNING env var, then\n"
      "                     exact). Estimated planning samples row products\n"
      "                     instead of running the exact symbolic pass;\n"
      "                     results are bit-identical either way\n"
      "  --partitions N     two-level executor: group the worker threads into\n"
      "                     N partition-local teams with cross-partition work\n"
      "                     stealing (default auto — the SPECK_PARTITIONS env\n"
      "                     var, then 1 = flat pool). Results are\n"
      "                     bit-identical for every N\n"
      "  --mask PATH        output-masked multiply C = (A*B) .* mask(PATH):\n"
      "                     the .mtx pattern at PATH (shape rows(A) x cols(B))\n"
      "                     restricts which C positions are computed; the\n"
      "                     symbolic pass is skipped and accumulators shrink\n"
      "                     to min(products, mask row nnz). Speck only;\n"
      "                     CompareResult checks the masked oracle instead\n"
      "  --help             this message\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  runtime failure (multiplication failed or mismatch vs reference)\n"
      "  2  usage error\n"
      "  3  bad input (malformed matrix file, invalid flag value)\n"
      "  4  resource exhausted (size overflow, simulated memory budget)\n"
      "  5  internal error (library invariant violated)\n"
      "  6  unknown exception\n",
      prog);
}

int run(int argc, char** argv) {
  using namespace speck;
  // Split off the flags; everything else keeps positional meaning.
  int flag_threads = 0;
  int flag_partitions = 0;
  bool flag_validate = false;
  SimdBackend flag_simd = SimdBackend::kAuto;
  PlanningMode flag_planning = PlanningMode::kAuto;
  FaultSpec fault_spec;
  std::string mask_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0], stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--validate") == 0) {
      flag_validate = true;
      continue;
    }
    if (std::strcmp(argv[i], "--fault-spec") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--fault-spec requires an argument\n");
        return 2;
      }
      fault_spec = parse_fault_spec(argv[i + 1]);
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--simd") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--simd requires an argument\n");
        return 2;
      }
      const auto parsed = simd::parse_backend(argv[i + 1]);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "--simd: unknown backend '%s' "
                     "(expected auto|scalar|sse|neon)\n",
                     argv[i + 1]);
        return 3;
      }
      if (!simd::backend_available(*parsed)) {
        std::fprintf(stderr, "--simd: backend '%s' is not available on this CPU\n",
                     argv[i + 1]);
        return 3;
      }
      flag_simd = *parsed;
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--planning") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--planning requires an argument\n");
        return 2;
      }
      const auto parsed = parse_planning_mode(argv[i + 1]);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "--planning: unknown mode '%s' "
                     "(expected auto|exact|estimated)\n",
                     argv[i + 1]);
        return 3;
      }
      flag_planning = *parsed;
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--mask") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--mask requires a matrix file path\n");
        return 2;
      }
      mask_path = argv[i + 1];
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0) {
      flag_threads = i + 1 < argc ? std::atoi(argv[i + 1]) : 0;
      if (flag_threads < 1) {
        std::fprintf(stderr, "--threads requires a positive integer\n");
        return 2;
      }
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--partitions") == 0) {
      flag_partitions = i + 1 < argc ? std::atoi(argv[i + 1]) : -1;
      if (flag_partitions < 1 || flag_partitions > 256) {
        std::fprintf(stderr,
                     "--partitions requires an integer in [1, 256]\n");
        return 2;
      }
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  const int nargs = static_cast<int>(args.size());
  if (nargs < 2) {
    print_usage(argv[0], stderr);
    return 2;
  }

  IniConfig config;
  if (nargs > 2) config = IniConfig::parse_file(args[2]);
  const std::string input = config.get_string("InputFile", args[1]);
  const int threads = flag_threads > 0
                          ? flag_threads
                          : static_cast<int>(config.get_int("Threads", 0));
  if (threads > 0) set_global_thread_count(threads);
  std::printf("host threads: %d\n",
              threads > 0 ? threads : default_thread_count());
  // Note which backend the hot loops will actually dispatch to; the choice
  // never affects results, only host wall time.
  std::printf("simd backend: %s (requested %s)\n",
              simd::backend_name(simd::resolve_backend(flag_simd)),
              simd::backend_name(flag_simd));
  std::printf("planning: %s (requested %s)\n",
              planning_mode_name(resolve_planning(flag_planning)),
              planning_mode_name(flag_planning));
  std::printf("partitions: %d%s\n", resolve_partitions(flag_partitions),
              flag_partitions == 0 ? " (auto)" : "");
  const bool track_complete = config.get_bool("TrackCompleteTimes", true);
  const bool track_individual = config.get_bool("TrackIndividualTimes", false);
  const bool compare_result = config.get_bool("CompareResult", false);
  const bool trace_launches = config.get_bool("TraceLaunches", false);
  const auto warmup = static_cast<int>(config.get_int("IterationsWarmUp", 1));
  const auto iterations = static_cast<int>(config.get_int("IterationsExecution", 5));

  std::printf("reading %s ...\n", input.c_str());
  Csr a = read_matrix_market_file(input);
  Csr b;
  if (a.rows() == a.cols()) {
    b = a;  // C = A*A
  } else {
    std::printf("rectangular input: computing C = A*A^T\n");
    b = transpose(a);
  }
  const offset_t products = count_products(a, b);
  std::printf("A: %s, products: %lld\n", a.shape_string().c_str(),
              static_cast<long long>(products));

  std::shared_ptr<const Csr> mask;
  if (!mask_path.empty()) {
    std::printf("reading mask %s ...\n", mask_path.c_str());
    mask = std::make_shared<const Csr>(read_matrix_market_file(mask_path));
    std::printf("mask: %s\n", mask->shape_string().c_str());
  }

  const std::string algorithm_name = config.get_string("Algorithm", "speck");
  const auto algorithm = baselines::make_algorithm(
      algorithm_name, sim::DeviceSpec::titan_v(), sim::CostModel{});
  // The launch trace, fault injection and input validation are
  // Speck-specific.
  auto* speck_ptr = dynamic_cast<Speck*>(algorithm.get());
  if (speck_ptr != nullptr) {
    speck_ptr->config().mask = mask;
    speck_ptr->config().validate_inputs = flag_validate;
    speck_ptr->config().simd_backend = flag_simd;
    speck_ptr->config().planning = flag_planning;
    speck_ptr->config().partitions = flag_partitions;
    speck_ptr->config().faults = fault_spec;
    speck_ptr->config().plan_cache = config.get_bool("PlanCache", true);
    speck_ptr->config().plan_cache_limit_bytes = static_cast<std::size_t>(
        config.get_int("PlanCacheLimitBytes",
                       static_cast<long long>(
                           speck_ptr->config().plan_cache_limit_bytes)));
    if (fault_spec.enabled()) {
      std::printf("fault injection: %s\n", describe(fault_spec).c_str());
    }
  } else if (fault_spec.enabled() || flag_validate ||
             flag_planning != PlanningMode::kAuto || flag_partitions != 0 ||
             mask != nullptr) {
    std::fprintf(stderr,
                 "--fault-spec/--validate/--planning/--partitions/--mask only "
                 "apply to Algorithm=speck (got %s)\n",
                 algorithm_name.c_str());
    return 2;
  }
  std::printf("algorithm: %s\n", algorithm_name.c_str());
  for (int i = 0; i < warmup; ++i) (void)algorithm->multiply(a, b);

  double total_seconds = 0.0;
  SpGemmResult last;
  for (int i = 0; i < std::max(iterations, 1); ++i) {
    last = algorithm->multiply(a, b);
    if (!last.ok()) {
      if (last.status == SpGemmStatus::kOutOfMemory) {
        throw ResourceExhausted(last.failure_reason, "runspeck");
      }
      std::fprintf(stderr, "multiplication failed: %s\n",
                   last.failure_reason.c_str());
      return 1;
    }
    total_seconds += last.seconds;
  }
  const double seconds = total_seconds / std::max(iterations, 1);

  std::printf("C: %s\n", last.c.shape_string().c_str());
  if (track_complete) {
    std::printf("simulated time: %.3f ms (%.2f GFLOPS), peak memory %.1f MB\n",
                seconds * 1e3,
                2.0 * static_cast<double>(products) / seconds * 1e-9,
                static_cast<double>(last.peak_memory_bytes) / (1024.0 * 1024.0));
  }
  if (track_individual) {
    std::printf("stage breakdown: %s\n", last.timeline.to_string().c_str());
  }
  if (speck_ptr != nullptr && speck_ptr->last_diagnostics().estimated_planning) {
    std::printf("estimated planning: %lld row(s) underflowed the sampled "
                "estimate and re-ran the exact fallback\n",
                static_cast<long long>(
                    speck_ptr->last_diagnostics().numeric.estimate_underflow_rows));
  }
  if (speck_ptr != nullptr &&
      speck_ptr->last_diagnostics().partition.partitions > 1) {
    const auto& part = speck_ptr->last_diagnostics().partition;
    std::printf("partitions: %d team(s), %zu stolen chunk(s), "
                "imbalance ratio %.2f\n",
                part.partitions, part.steal_count(), part.imbalance_ratio());
    std::string nodes;
    for (std::size_t t = 0; t < part.team_numa_nodes.size(); ++t) {
      if (t > 0) nodes += " ";
      nodes += part.team_numa_nodes[t] >= 0
                   ? std::to_string(part.team_numa_nodes[t])
                   : "?";
    }
    std::printf("partition numa nodes: [%s]\n", nodes.c_str());
  }
  if (speck_ptr != nullptr && speck_ptr->last_diagnostics().plan_cache_hit) {
    std::printf(
        "structure reuse: repeated iterations hit the plan cache "
        "(values-only replay; see docs/performance.md)\n");
  }
  if (trace_launches && speck_ptr != nullptr) {
    std::printf("\n%s", speck_ptr->last_trace().to_string().c_str());
  }
  if (compare_result) {
    // With --mask the product is output-masked, so the unmasked baseline
    // would spuriously mismatch; check against the masked oracle instead.
    Csr expected_c;
    if (mask != nullptr) {
      expected_c = masked_spgemm(a, b, *mask);
    } else {
      baselines::CusparseLike reference(sim::DeviceSpec::titan_v(),
                                        sim::CostModel{});
      expected_c = reference.multiply(a, b).c;
    }
    const auto diff = compare(last.c, expected_c);
    if (diff.has_value()) {
      std::fprintf(stderr, "ERROR: column indices do not match the reference: %s\n",
                   diff->description.c_str());
      return 1;
    }
    std::printf("result matches the %s reference\n",
                mask != nullptr ? "masked-Gustavson" : "cuSPARSE-like");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const speck::SpeckError& e) {
    const auto* as_std = dynamic_cast<const std::exception*>(&e);
    const speck::Status status = speck::Status::error(
        e.code(), as_std != nullptr ? as_std->what() : "", e.context());
    std::fprintf(stderr, "runspeck: %s\n", status.to_string().c_str());
    return speck::exit_code(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "runspeck: [InternalError] %s\n", e.what());
    return speck::exit_code(speck::ErrorCode::kInternal);
  } catch (...) {
    std::fprintf(stderr, "runspeck: unknown exception\n");
    return 6;
  }
}
