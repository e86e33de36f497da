// Tests for bf::util::Mutex / MutexLock and the runtime
// lock-rank assertion (util/mutex.h).
#include "util/mutex.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

// Death tests fork + abort, which ThreadSanitizer instruments poorly
// (spurious reports in the dying child); skip them under TSan.
#if defined(__SANITIZE_THREAD__)
#define BF_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BF_UNDER_TSAN 1
#endif
#endif
#ifndef BF_UNDER_TSAN
#define BF_UNDER_TSAN 0
#endif

namespace bf::util {
namespace {

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.lock();
  EXPECT_FALSE(mu.try_lock());  // already held by this test (non-recursive)
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexTest, MutexLockSerialisesConcurrentIncrements) {
  Mutex mu;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

#if BF_LOCK_RANK_CHECKS

struct CapturedViolation {
  bool fired = false;
  std::string heldName;
  int heldRank = 0;
  std::string acquiredName;
  int acquiredRank = 0;
};
CapturedViolation g_captured;

void captureViolation(const char* heldName, int heldRank,
                      const char* acquiredName, int acquiredRank) {
  g_captured.fired = true;
  g_captured.heldName = heldName;
  g_captured.heldRank = heldRank;
  g_captured.acquiredName = acquiredName;
  g_captured.acquiredRank = acquiredRank;
}

class LockRankTest : public ::testing::Test {
 protected:
  LockRankTest() {
    g_captured = {};
    previous_ = setLockRankViolationHandler(&captureViolation);
  }
  ~LockRankTest() override { setLockRankViolationHandler(previous_); }

 private:
  LockRankViolationHandler previous_;
};

TEST_F(LockRankTest, DescendingTheHierarchyIsClean) {
  Mutex outer(kRankEngineState, "outer");
  Mutex middle(kRankTracker, "middle");
  Mutex inner(kRankFlightRecorder, "inner");
  {
    MutexLock a(outer);
    MutexLock b(middle);
    MutexLock c(inner);
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockRankTest, AscendingTheHierarchyFiresTheHandler) {
  Mutex outer(kRankEngineState, "DecisionEngine.stateMutex_");
  Mutex inner(kRankMetrics, "MetricsRegistry.mutex_");
  {
    MutexLock a(inner);
    MutexLock b(outer);  // inversion: metrics (80) held, engine (10) wanted
  }
  ASSERT_TRUE(g_captured.fired);
  EXPECT_EQ(g_captured.heldName, "MetricsRegistry.mutex_");
  EXPECT_EQ(g_captured.heldRank, kRankMetrics);
  EXPECT_EQ(g_captured.acquiredName, "DecisionEngine.stateMutex_");
  EXPECT_EQ(g_captured.acquiredRank, kRankEngineState);
}

TEST_F(LockRankTest, EqualRankAlsoCountsAsInversion) {
  Mutex a(kRankTracker, "a");
  Mutex b(kRankTracker, "b");
  {
    MutexLock la(a);
    MutexLock lb(b);  // same rank: ordering between them is undefined
  }
  EXPECT_TRUE(g_captured.fired);
}

TEST_F(LockRankTest, UnrankedMutexesAreExempt) {
  Mutex ranked(kRankFlightRecorder, "ranked");
  Mutex unranked;
  {
    MutexLock a(ranked);
    MutexLock b(unranked);  // unranked after innermost rank: fine
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockRankTest, OutOfOrderReleaseKeepsBookkeepingStraight) {
  Mutex outer(kRankEngineState, "outer");
  Mutex inner(kRankTracker, "inner");
  outer.lock();
  inner.lock();
  outer.unlock();  // released before inner: not LIFO, still legal
  inner.unlock();
  // The held-set must now be empty: re-acquiring in any order is clean.
  {
    MutexLock b(inner);
  }
  {
    MutexLock a(outer);
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockRankTest, HandlerResetRestoresTheDefault) {
  // Install-and-return semantics: the previous handler comes back.
  LockRankViolationHandler mine = setLockRankViolationHandler(nullptr);
  EXPECT_EQ(mine, &captureViolation);
  setLockRankViolationHandler(mine);
}

#if GTEST_HAS_DEATH_TEST && !BF_UNDER_TSAN
TEST(LockRankDeathTest, DefaultHandlerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        Mutex inner(kRankFlightRecorder, "inner");
        Mutex outer(kRankEngineState, "outer");
        inner.lock();
        outer.lock();  // inversion with the abort handler installed
      },
      "lock-rank violation");
}
#endif  // GTEST_HAS_DEATH_TEST && !BF_UNDER_TSAN

#endif  // BF_LOCK_RANK_CHECKS

}  // namespace
}  // namespace bf::util
