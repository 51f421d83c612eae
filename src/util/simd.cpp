#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace cspls::util::simd {
namespace {

/// Environment kill-switch, resolved once at first use: CSPLS_SIMD=0 (or
/// "off"/"false") disables the vector tier for the whole process without a
/// rebuild.  Anything else — including unset — leaves the build-time tier.
bool env_allows_simd() {
  const char* raw = std::getenv("CSPLS_SIMD");
  if (raw == nullptr) return true;
  const std::string value(raw);
  return !(value == "0" || value == "off" || value == "OFF" ||
           value == "false" || value == "FALSE");
}

std::atomic<bool> g_force_scalar{false};

bool one_shot_enabled() {
  static const bool enabled = compiled_with_vectors() && env_allows_simd();
  return enabled;
}

std::string detect_tier_name() {
  if (!one_shot_enabled()) return "scalar";
  std::string name = std::string("vector-ext[compiled=") + compiled_isa();
#if defined(__x86_64__)
  const char* cpu = "sse2";
  if (__builtin_cpu_supports("avx512f")) {
    cpu = "avx512f";
  } else if (__builtin_cpu_supports("avx2")) {
    cpu = "avx2";
  } else if (__builtin_cpu_supports("sse4.2")) {
    cpu = "sse4.2";
  }
  name = name + ",cpu=" + cpu;
#endif
  return name + "]";
}

}  // namespace

bool runtime_enabled() noexcept {
  return one_shot_enabled() &&
         !g_force_scalar.load(std::memory_order_relaxed);
}

void set_force_scalar(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

const char* tier_name() noexcept {
  if (g_force_scalar.load(std::memory_order_relaxed)) return "scalar(forced)";
  static const std::string name = detect_tier_name();
  return name.c_str();
}

}  // namespace cspls::util::simd
