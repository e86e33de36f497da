#include "util/mutex.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace bf::util {

namespace {

void abortOnViolation(const char* heldName, int heldRank,
                      const char* acquiredName, int acquiredRank) {
  std::fprintf(stderr,
               "bf::util::Mutex lock-rank violation: acquiring '%s' (rank %d) "
               "while holding '%s' (rank %d); the hierarchy requires strictly "
               "increasing ranks (see util/mutex.h)\n",
               (acquiredName != nullptr && *acquiredName) ? acquiredName : "?",
               acquiredRank,
               (heldName != nullptr && *heldName) ? heldName : "?", heldRank);
  std::abort();
}

std::atomic<LockRankViolationHandler> g_handler{&abortOnViolation};

#if BF_LOCK_RANK_CHECKS
/// Per-thread stack of held RANKED mutexes. Small and fixed-size: the
/// hierarchy is shallow by design, and overflow degrades to not checking
/// the overflowed entries rather than misreporting.
struct HeldLocks {
  static constexpr int kMax = 16;
  struct Entry {
    const void* mutex;
    int rank;
    const char* name;
  };
  Entry entries[kMax];
  int count = 0;
};

HeldLocks& heldLocks() noexcept {
  thread_local HeldLocks held;
  return held;
}
#endif  // BF_LOCK_RANK_CHECKS

}  // namespace

LockRankViolationHandler setLockRankViolationHandler(
    LockRankViolationHandler handler) noexcept {
  return g_handler.exchange(handler != nullptr ? handler : &abortOnViolation);
}

namespace detail {

#if BF_LOCK_RANK_CHECKS

void noteAcquire(const void* mutex, int rank, const char* name) noexcept {
  if (rank == kRankUnranked) return;
  HeldLocks& held = heldLocks();
  // The deepest-ranked held mutex is not necessarily the most recent entry
  // (out-of-order releases are legal), so check against all of them.
  for (int i = 0; i < held.count; ++i) {
    if (held.entries[i].rank >= rank) {
      g_handler.load(std::memory_order_relaxed)(
          held.entries[i].name, held.entries[i].rank, name, rank);
      // A non-aborting (test) handler returns; keep bookkeeping coherent.
      break;
    }
  }
  if (held.count < HeldLocks::kMax) {
    held.entries[held.count] = HeldLocks::Entry{mutex, rank, name};
    ++held.count;
  }
}

void noteRelease(const void* mutex, int rank) noexcept {
  if (rank == kRankUnranked) return;
  HeldLocks& held = heldLocks();
  for (int i = held.count - 1; i >= 0; --i) {
    if (held.entries[i].mutex == mutex) {
      for (int j = i; j + 1 < held.count; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      --held.count;
      return;
    }
  }
}

#else  // !BF_LOCK_RANK_CHECKS

void noteAcquire(const void*, int, const char*) noexcept {}
void noteRelease(const void*, int) noexcept {}

#endif  // BF_LOCK_RANK_CHECKS

}  // namespace detail

}  // namespace bf::util
