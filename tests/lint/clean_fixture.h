// Fixture: a header every bflint rule should pass. Mentions of banned
// tokens inside comments and string literals must NOT fire: std::mutex,
// std::lock_guard, system_clock, rand().
#pragma once

#include <string>

#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bf::lintfixture {

/// Monotonic measurement time through the project clock shim: raw
/// std::chrono would trip raw-timing in fixture mode.
inline unsigned long long monotonicTicks() { return util::fastTicks(); }

inline std::string bannedTokensInStrings() {
  return "std::mutex, std::condition_variable, rand(, system_clock, "
         "std::chrono";
}

class Guarded {
 public:
  void bump() BF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    ++count_;
  }

 private:
  util::Mutex mutex_;
  int count_ BF_GUARDED_BY(mutex_) = 0;
};

}  // namespace bf::lintfixture
