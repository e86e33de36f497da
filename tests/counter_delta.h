// Test helper: how much a counter of the process-wide obs registry grew
// during a phase. Components count only in the registry (bf_* metrics), so
// a test reads what one phase did as the growth since the phase began.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace bf::testutil {

class CounterDelta {
 public:
  CounterDelta() : start_(obs::registry().snapshot()) {}

  /// Starts a new phase: growth counts from now.
  void restart() { start_ = obs::registry().snapshot(); }

  /// Growth of counter `name` since the phase began.
  [[nodiscard]] std::uint64_t operator()(std::string_view name) const {
    return obs::registry().snapshot().counterValue(name) -
           start_.counterValue(name);
  }

 private:
  obs::MetricsSnapshot start_;
};

}  // namespace bf::testutil
