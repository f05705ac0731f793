// Machine probe: core count, the resolved SIMD backend, cache sizes and a
// STREAM-style triad bandwidth measured in the same run. The triad gives
// speck.replay.bw_share its base (computed replay bytes per second over
// sustainable memory bandwidth).
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/simd.h"

namespace speckbench {
namespace {

std::size_t sysconf_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

/// Runs body(begin, end) over [0, n) split into `threads` contiguous chunks.
template <typename Body>
void parallel_chunks(std::size_t n, unsigned threads, Body body) {
  std::vector<std::thread> workers;
  const std::size_t chunk = (n + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t begin = std::min(n, t * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    workers.emplace_back([=] { body(begin, end); });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace

Machine probe_machine() {
  Machine m;
  m.nproc = std::max(1u, std::thread::hardware_concurrency());
  m.simd_backend = speck::simd::backend_name(
      speck::simd::resolve_backend(speck::SimdBackend::kAuto));
  m.l2_bytes = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
  m.llc_bytes = std::max(sysconf_bytes(_SC_LEVEL3_CACHE_SIZE), m.l2_bytes);
  return m;
}

void measure_triad(Machine& m) {
  // Each array at least 4x the last-level cache (64 MiB floor when the
  // cache size is unknown), so every sweep streams from memory.
  const std::size_t bytes = std::max<std::size_t>(4 * m.llc_bytes, 64u << 20);
  const std::size_t n = bytes / sizeof(double);
  m.triad_array_bytes = n * sizeof(double);
  // Uninitialized storage, first-touched by the threads that sweep it.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  parallel_chunks(n, m.nproc, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e300;
  constexpr int kSweeps = 3;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    const double scalar = 3.0 + sweep;
    const auto t0 = Clock::now();
    parallel_chunks(n, m.nproc, [&](std::size_t begin, std::size_t end) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = begin; i < end; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  // Keep the result observable so the sweeps cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  m.triad_gbps = 3.0 * static_cast<double>(m.triad_array_bytes) / best * 1e-9;
}

}  // namespace speckbench
