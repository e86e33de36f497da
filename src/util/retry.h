// Decorrelated-jitter backoff: the pacing DurabilityManager uses between
// repair attempts while degraded.
//
// The AWS "decorrelated" scheme: the first delay is the base, then each
// delay is uniform(base, prev * 3), capped. An explicit seeded Rng drives
// the jitter so tests and bench runs are reproducible. Delays are plain
// milliseconds; the caller measures them on its own clock (the durability
// manager compares them against a monotonic stopwatch, never sleeps).
#pragma once

#include <algorithm>

#include "util/rng.h"

namespace bf::util {

/// Produces one delay sequence. Reset between sequences (or construct
/// fresh); `rng` is not owned.
class Backoff {
 public:
  Backoff(double baseDelayMs, double maxDelayMs, Rng* rng) noexcept
      : baseDelayMs_(baseDelayMs), maxDelayMs_(maxDelayMs), rng_(rng) {}

  /// Next delay with decorrelated jitter: the first delay is exactly
  /// baseDelayMs, then uniform(base, prev * 3) capped at maxDelayMs.
  [[nodiscard]] double nextDelayMs() noexcept {
    double next;
    if (prevMs_ <= 0.0) {
      next = baseDelayMs_;
    } else {
      const double hi = std::max(prevMs_ * 3.0, baseDelayMs_);
      next = baseDelayMs_ + rng_->uniform01() * (hi - baseDelayMs_);
    }
    next = std::min(next, maxDelayMs_);
    prevMs_ = next;
    return next;
  }

  void reset() noexcept { prevMs_ = 0.0; }

 private:
  double baseDelayMs_;
  double maxDelayMs_;
  Rng* rng_;
  double prevMs_ = 0.0;
};

}  // namespace bf::util
