// Time sources.
//
// The flow tracker orders hash observations by timestamp to compute
// authoritative fingerprints (paper S4.3). An injectable clock keeps that
// ordering deterministic. Trackers run on a LogicalClock, whose stamps stay
// small enough for DBhash's compact slots (firstSeen < 2^31).
#pragma once

#include <atomic>
#include <cstdint>

namespace bf::util {

/// Monotonically non-decreasing timestamp. Unit: clock-defined ticks.
using Timestamp = std::uint64_t;

/// Abstract time source.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Returns the current time. Successive calls never go backwards.
  virtual Timestamp now() = 0;
};

/// Deterministic clock: every call to now() advances by one tick.
/// Guarantees strict ordering of observations, which tests rely on.
/// Atomic: one clock is typically shared by the tracker (internally
/// locked) and the policy (engine-locked), which run under different
/// mutexes and may tick concurrently.
class LogicalClock final : public Clock {
 public:
  explicit LogicalClock(Timestamp start = 0) noexcept : t_(start) {}
  Timestamp now() override {
    return t_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Jumps forward; next now() returns at least `t`.
  void advanceTo(Timestamp t) noexcept {
    Timestamp cur = t_.load(std::memory_order_relaxed);
    while (t > cur &&
           !t_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<Timestamp> t_;
};

/// Cycle-accurate monotonic tick counter for per-stage latency attribution
/// (obs/stage.h). On x86-64 this is a single rdtsc; elsewhere it falls back
/// to the steady clock. Tick units are unspecified — only deltas converted
/// through fastTicksToNanos() are meaningful.
[[nodiscard]] std::uint64_t fastTicks() noexcept;

/// Converts a fastTicks() delta to nanoseconds. The first call calibrates
/// the tick rate against the steady clock (~0.2 ms busy-wait, once per
/// process); call warmFastTicks() at startup to pay that cost eagerly.
[[nodiscard]] std::uint64_t fastTicksToNanos(std::uint64_t ticks) noexcept;

/// Forces fastTicksToNanos() calibration now, outside any lock.
void warmFastTicks() noexcept;

}  // namespace bf::util
