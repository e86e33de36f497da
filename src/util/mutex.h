// Annotated mutex primitives with a runtime lock-rank assertion.
//
// Every mutex in BrowserFlow outside this directory is a bf::util::Mutex
// (scripts/bflint.py bans raw std::mutex elsewhere). The wrapper adds two
// things over std::mutex:
//
//  1. Clang thread-safety capability annotations (util/thread_annotations.h)
//     so `-Wthread-safety -Werror=thread-safety` proves lock discipline at
//     compile time;
//  2. a debug-only lock-RANK assertion encoding the documented hierarchy:
//     a thread may only acquire a mutex whose rank is STRICTLY GREATER than
//     every rank it already holds (outermost = lowest rank). Violations —
//     i.e. potential lock-order inversions — abort by default, or invoke a
//     test-installable handler (see setLockRankViolationHandler).
//
// Documented hierarchy, outermost first (DESIGN.md §9):
//
//   kRankEngineState   (10)  core::DecisionEngine::stateMutex_
//   kRankTracker       (40)  flow::FlowTracker::mutex_
//   kRankWal           (60)  flow::WriteAheadLog::mutex_ (appends run under
//                            the tracker's exclusive sections)
//   kRankFaultInjector (62)  cloud::FaultInjector::mutex_
//   kRankStorageFault  (65)  io::FaultVfs::mutex_ (fault picks run under the
//                            WAL mutex during appends/checkpoints)
//   kRankMetrics       (80)  obs::MetricsRegistry::mutex_
//   kRankFlightRecorder(88)  obs::FlightRecorder::mutex_ (decision records
//                            are retained after outer locks are released,
//                            but explain() may run under engine read locks)
//
// Rank checking is compiled in when BF_LOCK_RANK_CHECKS is 1 (the CMake
// option of the same name, ON by default for every dev/test preset; a
// production build may configure with -DBF_LOCK_RANK_CHECKS=OFF, falling
// back to NDEBUG: checks off).
#pragma once

#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

#if !defined(BF_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define BF_LOCK_RANK_CHECKS 0
#else
#define BF_LOCK_RANK_CHECKS 1
#endif
#endif

namespace bf::util {

// Lock ranks (outermost first; strictly increasing on one thread).
inline constexpr int kRankUnranked = -1;  ///< exempt from hierarchy checks
inline constexpr int kRankEngineState = 10;
inline constexpr int kRankTracker = 40;
inline constexpr int kRankWal = 60;
inline constexpr int kRankFaultInjector = 62;
inline constexpr int kRankStorageFault = 65;
inline constexpr int kRankMetrics = 80;
inline constexpr int kRankFlightRecorder = 88;

/// Called when a thread acquires a ranked mutex while already holding one
/// of equal or greater rank. The default handler prints both mutexes and
/// aborts; tests install a capturing handler to assert on violations
/// without dying.
using LockRankViolationHandler = void (*)(const char* heldName, int heldRank,
                                          const char* acquiredName,
                                          int acquiredRank);

/// Installs `handler` (nullptr restores the abort default) and returns the
/// previous one. Test-only; not synchronised with concurrent lock traffic.
LockRankViolationHandler setLockRankViolationHandler(
    LockRankViolationHandler handler) noexcept;

/// True when the build carries lock-rank bookkeeping (BF_LOCK_RANK_CHECKS).
[[nodiscard]] constexpr bool lockRankChecksEnabled() noexcept {
  return BF_LOCK_RANK_CHECKS != 0;
}

namespace detail {
/// Bookkeeping hooks behind Mutex; no-ops unless BF_LOCK_RANK_CHECKS.
void noteAcquire(const void* mutex, int rank, const char* name) noexcept;
void noteRelease(const void* mutex, int rank) noexcept;
}  // namespace detail

/// Annotated std::mutex wrapper. Construct with a rank from the hierarchy
/// above (and a name for diagnostics); default-constructed mutexes are
/// unranked and exempt from order checking.
class BF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept = default;
  explicit Mutex(int rank, const char* name = "") noexcept
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BF_ACQUIRE() {
#if BF_LOCK_RANK_CHECKS
    detail::noteAcquire(this, rank_, name_);
#endif
    m_.lock();
  }

  void unlock() BF_RELEASE() {
    m_.unlock();
#if BF_LOCK_RANK_CHECKS
    detail::noteRelease(this, rank_);
#endif
  }

  bool try_lock() BF_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
#if BF_LOCK_RANK_CHECKS
    detail::noteAcquire(this, rank_, name_);
#endif
    return true;
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

 private:
  std::mutex m_;
  int rank_ = kRankUnranked;
  const char* name_ = "";
};

/// RAII lock for a whole scope (the common case).
class BF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() BF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace bf::util
