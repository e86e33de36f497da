// Tests for the retry primitives: deterministic backoff sequences, delay
// bounds, and the retry-amplification budget.
#include <gtest/gtest.h>

#include "util/retry.h"

namespace bf::util {
namespace {

TEST(RetryPolicy, EnabledIffMoreThanOneAttempt) {
  RetryPolicy p;
  p.maxAttempts = 1;
  EXPECT_FALSE(p.enabled());
  p.maxAttempts = 2;
  EXPECT_TRUE(p.enabled());
}

TEST(Backoff, FirstDelayIsExactlyBase) {
  RetryPolicy p;
  p.baseDelayMs = 40.0;
  Rng rng(7);
  Backoff b(p, &rng);
  EXPECT_DOUBLE_EQ(b.nextDelayMs(), 40.0);
}

TEST(Backoff, SameSeedSameSequence) {
  RetryPolicy p;
  Rng rngA(42), rngB(42);
  Backoff a(p, &rngA), b(p, &rngB);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.nextDelayMs(), b.nextDelayMs()) << "step " << i;
  }
}

TEST(Backoff, DelaysStayWithinDecorrelatedBounds) {
  RetryPolicy p;
  p.baseDelayMs = 10.0;
  p.maxDelayMs = 500.0;
  Rng rng(3);
  Backoff b(p, &rng);
  double prev = b.nextDelayMs();
  EXPECT_DOUBLE_EQ(prev, 10.0);
  for (int i = 0; i < 50; ++i) {
    const double d = b.nextDelayMs();
    EXPECT_GE(d, p.baseDelayMs);
    EXPECT_LE(d, std::min(std::max(prev * 3.0, p.baseDelayMs), p.maxDelayMs));
    prev = d;
  }
}

TEST(Backoff, CappedAtMaxDelay) {
  RetryPolicy p;
  p.baseDelayMs = 100.0;
  p.maxDelayMs = 150.0;
  Rng rng(9);
  Backoff b(p, &rng);
  for (int i = 0; i < 20; ++i) {
    EXPECT_LE(b.nextDelayMs(), 150.0);
  }
}

TEST(Backoff, ResetRestartsAtBase) {
  RetryPolicy p;
  p.baseDelayMs = 25.0;
  Rng rng(5);
  Backoff b(p, &rng);
  EXPECT_GE(b.nextDelayMs(), 25.0);
  EXPECT_GE(b.nextDelayMs(), 25.0);
  b.reset();
  EXPECT_DOUBLE_EQ(b.nextDelayMs(), 25.0);
}

TEST(RetryBudget, WithdrawUntilEmptyThenDenied) {
  RetryBudget budget(3.0, 0.5);
  EXPECT_TRUE(budget.tryWithdraw());
  EXPECT_TRUE(budget.tryWithdraw());
  EXPECT_TRUE(budget.tryWithdraw());
  EXPECT_FALSE(budget.tryWithdraw()) << "bucket exhausted";
  EXPECT_DOUBLE_EQ(budget.tokens(), 0.0);
}

TEST(RetryBudget, SuccessesRefillFractionally) {
  RetryBudget budget(2.0, 0.5);
  ASSERT_TRUE(budget.tryWithdraw());
  ASSERT_TRUE(budget.tryWithdraw());
  EXPECT_FALSE(budget.tryWithdraw());
  budget.deposit();  // 0.5 tokens: still below a full token
  EXPECT_FALSE(budget.tryWithdraw());
  budget.deposit();  // 1.0 token
  EXPECT_TRUE(budget.tryWithdraw());
}

TEST(RetryBudget, RefillCappedAtCapacity) {
  RetryBudget budget(1.0, 10.0);
  budget.deposit();
  budget.deposit();
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);
}

}  // namespace
}  // namespace bf::util
