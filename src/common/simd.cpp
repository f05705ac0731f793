#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace speck::simd {

bool backend_available(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kAuto:
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kSse:
#if defined(SPECK_SIMD_X86)
      // SSE2 is part of the x86-64 baseline; on 32-bit x86 ask the CPU.
#if defined(__x86_64__)
      return true;
#else
      return __builtin_cpu_supports("sse2") != 0;
#endif
#else
      return false;
#endif
    case SimdBackend::kNeon:
#if defined(SPECK_SIMD_NEON)
      return true;  // NEON is mandatory on aarch64
#else
      return false;
#endif
  }
  return false;
}

SimdBackend detected_backend() {
  if (backend_available(SimdBackend::kSse)) return SimdBackend::kSse;
  if (backend_available(SimdBackend::kNeon)) return SimdBackend::kNeon;
  return SimdBackend::kScalar;
}

std::optional<SimdBackend> parse_backend(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "auto") return SimdBackend::kAuto;
  if (lower == "scalar") return SimdBackend::kScalar;
  if (lower == "sse") return SimdBackend::kSse;
  if (lower == "neon") return SimdBackend::kNeon;
  return std::nullopt;
}

const char* backend_name(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kAuto: return "auto";
    case SimdBackend::kScalar: return "scalar";
    case SimdBackend::kSse: return "sse";
    case SimdBackend::kNeon: return "neon";
  }
  return "?";
}

SimdBackend resolve_backend(SimdBackend choice) {
  if (choice != SimdBackend::kAuto) {
    SPECK_REQUIRE(backend_available(choice),
                  std::string("SIMD backend '") + backend_name(choice) +
                      "' is not available on this CPU");
    return choice;
  }
  if (const char* env = std::getenv("SPECK_SIMD")) {
    const std::optional<SimdBackend> parsed = parse_backend(env);
    if (parsed.has_value() && *parsed != SimdBackend::kAuto &&
        backend_available(*parsed)) {
      return *parsed;
    }
    if (parsed.has_value() && *parsed == SimdBackend::kAuto) {
      return detected_backend();
    }
    // Invalid or unavailable request from the environment: warn once and
    // fall back to detection rather than aborting the process.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "speck: ignoring SPECK_SIMD='%s' (unknown or unavailable "
                   "backend; using '%s')\n",
                   env, backend_name(detected_backend()));
    }
  }
  return detected_backend();
}

}  // namespace speck::simd
