// Tests for the repair backoff: deterministic delay sequences and their
// bounds.
#include <gtest/gtest.h>

#include "util/retry.h"

namespace bf::util {
namespace {

TEST(Backoff, FirstDelayIsExactlyBase) {
  Rng rng(7);
  Backoff b(40.0, 1000.0, &rng);
  EXPECT_DOUBLE_EQ(b.nextDelayMs(), 40.0);
}

TEST(Backoff, SameSeedSameSequence) {
  Rng rngA(42), rngB(42);
  Backoff a(25.0, 1000.0, &rngA), b(25.0, 1000.0, &rngB);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.nextDelayMs(), b.nextDelayMs()) << "step " << i;
  }
}

TEST(Backoff, DelaysStayWithinDecorrelatedBounds) {
  const double base = 10.0;
  const double cap = 500.0;
  Rng rng(3);
  Backoff b(base, cap, &rng);
  double prev = b.nextDelayMs();
  EXPECT_DOUBLE_EQ(prev, 10.0);
  for (int i = 0; i < 50; ++i) {
    const double d = b.nextDelayMs();
    EXPECT_GE(d, base);
    EXPECT_LE(d, std::min(std::max(prev * 3.0, base), cap));
    prev = d;
  }
}

TEST(Backoff, CappedAtMaxDelay) {
  Rng rng(9);
  Backoff b(100.0, 150.0, &rng);
  for (int i = 0; i < 20; ++i) {
    EXPECT_LE(b.nextDelayMs(), 150.0);
  }
}

TEST(Backoff, ResetRestartsAtBase) {
  Rng rng(5);
  Backoff b(25.0, 1000.0, &rng);
  EXPECT_GE(b.nextDelayMs(), 25.0);
  EXPECT_GE(b.nextDelayMs(), 25.0);
  b.reset();
  EXPECT_DOUBLE_EQ(b.nextDelayMs(), 25.0);
}

}  // namespace
}  // namespace bf::util
