// Deterministic fault injection for the spECK pipeline.
//
// spECK's correctness story rests on graceful degradation: when the cheap
// row analysis under-estimates, scratchpad hash maps spill to the global
// fallback; when it over-estimates, rows land in needlessly large kernels.
// Those paths are hard to hit organically on well-formed corpora, so tests
// drive them on demand through a FaultSpec: scale the estimates, force hash
// overflows, shrink the simulated scratchpad, cap the memory budget. Every
// fault only perturbs *simulated* resources and planning inputs — the
// numeric CSR output must stay bit-identical to the exact oracle (or fail
// with a typed error); tests assert exactly that.
//
// All injector queries are pure functions of the spec (per-row jitter uses
// stateless splitmix64 hashing of (seed, row)), so results are identical at
// any host thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace speck {

/// What to inject. Default-constructed == no faults (`enabled()` false).
/// Built programmatically or parsed from the `--fault-spec` grammar
/// (see parse_fault_spec).
struct FaultSpec {
  /// Multiplies every per-row product estimate fed to binning/method
  /// selection. <1 under-estimates (forces hash overflow + spill paths),
  /// >1 over-estimates (forces mis-binning into large kernels).
  double estimate_scale = 1.0;
  /// Adds a deterministic per-row multiplicative jitter in
  /// [1-jitter, 1+jitter], seeded by `seed` (0 = off).
  double estimate_jitter = 0.0;
  /// Seed for the per-row jitter hash.
  std::uint64_t seed = 0;
  /// Forces every scratchpad hash accumulator to spill to the global map
  /// once it holds this many entries (0 = off). Per-accumulator, hence
  /// deterministic under parallel block execution.
  std::int64_t hash_overflow_after = 0;
  /// Multiplies every simulated scratchpad capacity (hash slots, dense
  /// window columns); must be in (0, 1]. Shrinks what binning assumed.
  double scratchpad_scale = 1.0;
  /// Caps the simulated device memory (0 = off). Exercises the structured
  /// out-of-memory paths of Speck::multiply.
  std::size_t memory_budget_bytes = 0;
  /// Multiplies the sampled per-row NNZ estimates of estimated planning
  /// (docs/performance.md "Estimated planning"); <1 forces estimate
  /// underflow and the per-row numeric fallback. Distinct from
  /// estimate_scale so exact-mode binning faults and estimator faults
  /// compose independently.
  double estimator_scale = 1.0;

  // --- Serving-layer faults (consumed by SpeckService via
  // ServiceConfig::faults; the pipeline-side FaultInjector ignores them, and
  // they do not enter the planning-config hash — they never change what a
  // plan computes, only how the service treats the request around it).

  /// Forces the service's plan build to fail (structured InternalError) for
  /// every fingerprint whose 64-bit key hash is divisible by this value
  /// (0 = off). Deterministic per pattern, so quarantine trips reproduce.
  std::uint64_t plan_fail_mod = 0;
  /// Injected planning latency in milliseconds, slept inside the service's
  /// plan-build critical section (0 = off). Stresses deadlines and the
  /// plan-mutex convoy.
  double plan_delay_ms = 0.0;
  /// Multiplies every admission-control byte charge (must be >= 1; 1 = off):
  /// a deterministic budget squeeze that drives shedding/queueing without
  /// changing real memory use.
  double admission_bytes_scale = 1.0;
  /// Every Nth service request evicts the entire plan cache before lookup
  /// (0 = off): an eviction storm forcing replan churn under traffic.
  std::uint64_t evict_every = 0;

  /// True when any field differs from its no-fault default.
  bool enabled() const;
};

/// Throws BadInput when a field is outside its documented domain.
void validate(const FaultSpec& spec);

/// Parses the --fault-spec grammar: comma-separated key=value pairs,
///   estimate-scale=<float>     estimate-jitter=<float>   seed=<uint>
///   hash-overflow-after=<int>  scratchpad-scale=<float>  memory-budget-mb=<float>
///   estimator-scale=<float>    plan-fail-mod=<uint>      plan-delay-ms=<float>
///   admission-scale=<float>    evict-every=<uint>
/// e.g. "estimate-scale=0.25,hash-overflow-after=16". Unknown keys,
/// malformed numbers and out-of-domain values throw BadInput (context
/// names the offending pair).
FaultSpec parse_fault_spec(const std::string& text);

/// One-line human-readable rendering of the active faults.
std::string describe(const FaultSpec& spec);

/// Stateless view over a validated FaultSpec answering the pipeline's
/// injection queries. Thread-safe (const, no mutable state).
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  /// Scaled (and jittered) per-row estimate; clamped to >= 0.
  offset_t scale_estimate(index_t row, offset_t estimate) const;

  /// Sampled-estimator NNZ estimate under the estimator-scale fault;
  /// clamped to >= 0. Identity when the fault is off.
  offset_t scale_sampled_estimate(offset_t estimate) const;

  /// Scaled scratchpad capacity; clamped to >= 1 slot.
  std::size_t scratchpad_capacity(std::size_t capacity) const;

  /// Device memory visible to the memory tracker under the budget cap.
  std::size_t cap_memory(std::size_t device_bytes) const;

 private:
  FaultSpec spec_;
};

}  // namespace speck
