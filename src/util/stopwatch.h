// Wall-clock stopwatch for latency measurement in benches and the decision
// engine's response-time instrumentation.
#pragma once

#include <chrono>
#include <cstdint>

namespace bf::util {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed time since construction/reset.
  [[nodiscard]] std::uint64_t elapsedNanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  [[nodiscard]] double elapsedMicros() const {
    return static_cast<double>(elapsedNanos()) / 1e3;
  }
  [[nodiscard]] double elapsedMillis() const {
    return static_cast<double>(elapsedNanos()) / 1e6;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bf::util
