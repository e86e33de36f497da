// Runtime kernel selection (see kernel.h). Modeled on util/crc32c's
// cpuid dispatch: capability probes via __builtin_cpu_supports, resolved
// once into a function-local static, overridable for tests and via the
// BF_FORCE_SCALAR_KERNEL environment variable.
#include "text/simd/kernel.h"

#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"

namespace bf::text::simd {

namespace {

/// The `bf_kernel_dispatch` gauge: which fingerprint kernel dispatches
/// (0 = scalar, 3 = avx512). Resolved once; re-set whenever a test
/// override changes the active tier.
obs::Gauge& dispatchGauge() {
  static obs::Gauge& g = obs::registry().gauge(
      "bf_kernel_dispatch",
      "Fingerprint kernel tier in use (0=scalar, 3=avx512)");
  return g;
}

bool cpuHasAvx512() noexcept {
#if defined(BF_TEXT_SIMD_X86)
  // F: the 512-bit core ops (VPMINUQ, VALIGNQ, VPERMT2Q); DQ: VPMULLQ
  // in the hash advance and mix64; BW/VL round out the tier so future
  // kernels can mix vector widths. AVX2 + BMI2: the kernel normalizes
  // with AVX2 and compacts bytes with PEXT (normalize_avx2.h).
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2");
#else
  return false;
#endif
}

bool envForcesScalar() noexcept {
  const char* v = std::getenv("BF_FORCE_SCALAR_KERNEL");
  return v != nullptr && *v != '\0' &&
         !(v[0] == '0' && v[1] == '\0');  // any value but "" and "0" forces
}

KernelTier resolveAutoTier() noexcept {
  return detail::chooseKernelTier(envForcesScalar(), cpuHasAvx512());
}

/// Test override; -1 means "no override, use the resolved auto tier".
std::atomic<int> g_override{-1};

}  // namespace

namespace detail {

KernelTier chooseKernelTier(bool forceScalar, bool haveAvx512) noexcept {
  return !forceScalar && haveAvx512 ? KernelTier::kAvx512 : KernelTier::kScalar;
}

}  // namespace detail

const char* kernelTierName(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool kernelTierSupported(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx512:
      return cpuHasAvx512();
  }
  return false;
}

KernelTier activeKernelTier() noexcept {
  const int over = g_override.load(std::memory_order_relaxed);
  if (over >= 0) return static_cast<KernelTier>(over);
  // Resolved once per process; publishing the gauge here keeps the metric
  // truthful even if no one queries the tier explicitly.
  static const KernelTier auto_ = [] {
    const KernelTier t = resolveAutoTier();
    dispatchGauge().set(static_cast<double>(static_cast<int>(t)));
    return t;
  }();
  return auto_;
}

bool setKernelTierOverrideForTest(KernelTier tier) noexcept {
  if (!kernelTierSupported(tier)) return false;
  g_override.store(static_cast<int>(tier), std::memory_order_relaxed);
  dispatchGauge().set(static_cast<double>(static_cast<int>(tier)));
  return true;
}

void restoreAutoKernelTier() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
  dispatchGauge().set(
      static_cast<double>(static_cast<int>(activeKernelTier())));
}

}  // namespace bf::text::simd
