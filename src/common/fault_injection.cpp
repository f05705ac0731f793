#include "common/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/prng.h"

namespace speck {

bool FaultSpec::enabled() const {
  return estimate_scale != 1.0 || estimate_jitter != 0.0 ||
         hash_overflow_after != 0 || scratchpad_scale != 1.0 ||
         memory_budget_bytes != 0 || estimator_scale != 1.0 ||
         plan_fail_mod != 0 || plan_delay_ms != 0.0 ||
         admission_bytes_scale != 1.0 || evict_every != 0;
}

void validate(const FaultSpec& spec) {
  SPECK_REQUIRE(spec.estimate_scale > 0.0 && std::isfinite(spec.estimate_scale),
                "estimate-scale must be a positive finite number");
  SPECK_REQUIRE(spec.estimate_jitter >= 0.0 && spec.estimate_jitter < 1.0,
                "estimate-jitter must be in [0, 1)");
  SPECK_REQUIRE(spec.hash_overflow_after >= 0,
                "hash-overflow-after must be >= 0 (0 = off)");
  SPECK_REQUIRE(spec.scratchpad_scale > 0.0 && spec.scratchpad_scale <= 1.0,
                "scratchpad-scale must be in (0, 1]");
  SPECK_REQUIRE(spec.estimator_scale > 0.0 && std::isfinite(spec.estimator_scale),
                "estimator-scale must be a positive finite number");
  SPECK_REQUIRE(spec.plan_delay_ms >= 0.0 && std::isfinite(spec.plan_delay_ms),
                "plan-delay-ms must be a finite number >= 0");
  SPECK_REQUIRE(spec.admission_bytes_scale >= 1.0 &&
                    std::isfinite(spec.admission_bytes_scale),
                "admission-scale must be a finite number >= 1");
}

namespace {

double parse_double(const std::string& pair, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    throw BadInput("fault-spec: cannot parse number '" + value + "'", pair);
  }
  return parsed;
}

std::int64_t parse_int(const std::string& pair, const std::string& value) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw BadInput("fault-spec: cannot parse integer '" + value + "'", pair);
  }
  return parsed;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = std::min(text.find(',', begin), text.size());
    const std::string pair = text.substr(begin, end - begin);
    begin = end + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw BadInput("fault-spec: expected key=value", pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "estimate-scale") {
      spec.estimate_scale = parse_double(pair, value);
    } else if (key == "estimate-jitter") {
      spec.estimate_jitter = parse_double(pair, value);
    } else if (key == "seed") {
      const std::int64_t seed = parse_int(pair, value);
      if (seed < 0) throw BadInput("fault-spec: seed must be >= 0", pair);
      spec.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "hash-overflow-after") {
      spec.hash_overflow_after = parse_int(pair, value);
    } else if (key == "scratchpad-scale") {
      spec.scratchpad_scale = parse_double(pair, value);
    } else if (key == "memory-budget-mb") {
      const double mb = parse_double(pair, value);
      if (mb <= 0.0) throw BadInput("fault-spec: memory-budget-mb must be > 0", pair);
      spec.memory_budget_bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
    } else if (key == "estimator-scale") {
      spec.estimator_scale = parse_double(pair, value);
    } else if (key == "plan-fail-mod") {
      const std::int64_t mod = parse_int(pair, value);
      if (mod < 0) throw BadInput("fault-spec: plan-fail-mod must be >= 0", pair);
      spec.plan_fail_mod = static_cast<std::uint64_t>(mod);
    } else if (key == "plan-delay-ms") {
      spec.plan_delay_ms = parse_double(pair, value);
    } else if (key == "admission-scale") {
      spec.admission_bytes_scale = parse_double(pair, value);
    } else if (key == "evict-every") {
      const std::int64_t every = parse_int(pair, value);
      if (every < 0) throw BadInput("fault-spec: evict-every must be >= 0", pair);
      spec.evict_every = static_cast<std::uint64_t>(every);
    } else {
      throw BadInput("fault-spec: unknown key '" + key + "'", pair);
    }
  }
  validate(spec);
  return spec;
}

std::string describe(const FaultSpec& spec) {
  if (!spec.enabled()) return "faults: none";
  std::string out = "faults:";
  if (spec.estimate_scale != 1.0) {
    out += " estimate-scale=" + std::to_string(spec.estimate_scale);
  }
  if (spec.estimate_jitter != 0.0) {
    out += " estimate-jitter=" + std::to_string(spec.estimate_jitter) +
           " seed=" + std::to_string(spec.seed);
  }
  if (spec.hash_overflow_after != 0) {
    out += " hash-overflow-after=" + std::to_string(spec.hash_overflow_after);
  }
  if (spec.scratchpad_scale != 1.0) {
    out += " scratchpad-scale=" + std::to_string(spec.scratchpad_scale);
  }
  if (spec.memory_budget_bytes != 0) {
    out += " memory-budget-mb=" +
           std::to_string(static_cast<double>(spec.memory_budget_bytes) /
                          (1024.0 * 1024.0));
  }
  if (spec.estimator_scale != 1.0) {
    out += " estimator-scale=" + std::to_string(spec.estimator_scale);
  }
  if (spec.plan_fail_mod != 0) {
    out += " plan-fail-mod=" + std::to_string(spec.plan_fail_mod);
  }
  if (spec.plan_delay_ms != 0.0) {
    out += " plan-delay-ms=" + std::to_string(spec.plan_delay_ms);
  }
  if (spec.admission_bytes_scale != 1.0) {
    out += " admission-scale=" + std::to_string(spec.admission_bytes_scale);
  }
  if (spec.evict_every != 0) {
    out += " evict-every=" + std::to_string(spec.evict_every);
  }
  return out;
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(spec) { validate(spec_); }

offset_t FaultInjector::scale_estimate(index_t row, offset_t estimate) const {
  double factor = spec_.estimate_scale;
  if (spec_.estimate_jitter != 0.0) {
    // Stateless per-row hash: identical for any thread count or visit order.
    std::uint64_t state = spec_.seed ^ (0x9E3779B97F4A7C15ull +
                                        static_cast<std::uint64_t>(row));
    const double unit = static_cast<double>(splitmix64(state) >> 11) *
                        (1.0 / static_cast<double>(std::uint64_t{1} << 53));
    factor *= 1.0 + spec_.estimate_jitter * (2.0 * unit - 1.0);
  }
  const double scaled = static_cast<double>(estimate) * factor;
  if (scaled <= 0.0) return 0;
  if (scaled >= static_cast<double>(std::numeric_limits<offset_t>::max())) {
    return std::numeric_limits<offset_t>::max();
  }
  return static_cast<offset_t>(scaled);
}

offset_t FaultInjector::scale_sampled_estimate(offset_t estimate) const {
  if (spec_.estimator_scale == 1.0) return estimate;
  const double scaled =
      static_cast<double>(estimate) * spec_.estimator_scale;
  if (scaled <= 0.0) return 0;
  if (scaled >= static_cast<double>(std::numeric_limits<offset_t>::max())) {
    return std::numeric_limits<offset_t>::max();
  }
  return static_cast<offset_t>(scaled);
}

std::size_t FaultInjector::scratchpad_capacity(std::size_t capacity) const {
  if (spec_.scratchpad_scale == 1.0) return capacity;
  const auto scaled = static_cast<std::size_t>(
      static_cast<double>(capacity) * spec_.scratchpad_scale);
  return std::max<std::size_t>(1, scaled);
}

std::size_t FaultInjector::cap_memory(std::size_t device_bytes) const {
  if (spec_.memory_budget_bytes == 0) return device_bytes;
  return std::min(device_bytes, spec_.memory_budget_bytes);
}

}  // namespace speck
