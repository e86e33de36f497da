#include "util/clock.h"

#include <chrono>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define BF_HAVE_RDTSC 1
#else
#define BF_HAVE_RDTSC 0
#endif

namespace bf::util {
namespace {

std::uint64_t steadyNanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if BF_HAVE_RDTSC
/// Ticks per nanosecond, measured once against the steady clock. A ~200 µs
/// window keeps the ratio stable to well under 1% — far below the precision
/// stage attribution needs — while being invisible at process start.
double ticksPerNano() noexcept {
  static const double rate = [] {
    const std::uint64_t t0 = __rdtsc();
    const std::uint64_t n0 = steadyNanos();
    while (steadyNanos() - n0 < 200'000) {
    }
    const std::uint64_t n1 = steadyNanos();
    const std::uint64_t t1 = __rdtsc();
    const double r =
        static_cast<double>(t1 - t0) / static_cast<double>(n1 - n0);
    return r > 0.0 ? r : 1.0;
  }();
  return rate;
}
#endif

}  // namespace

std::uint64_t fastTicks() noexcept {
#if BF_HAVE_RDTSC
  return __rdtsc();
#else
  return steadyNanos();
#endif
}

std::uint64_t fastTicksToNanos(std::uint64_t ticks) noexcept {
#if BF_HAVE_RDTSC
  // Multiply by the cached reciprocal: this runs twice per stage timer, and
  // a double divide costs several times a multiply.
  static const double nanosPerTick = 1.0 / ticksPerNano();
  return static_cast<std::uint64_t>(static_cast<double>(ticks) * nanosPerTick);
#else
  return ticks;
#endif
}

void warmFastTicks() noexcept { (void)fastTicksToNanos(1); }

}  // namespace bf::util
