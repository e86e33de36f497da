// Tests for the util substrate: hashing, rng, strings, stats, clocks.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "util/clock.h"
#include "util/hashing.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace bf::util {
namespace {

// ---- hashing ---------------------------------------------------------------

TEST(Fnv1a64, KnownVectors) {
  // Reference values for FNV-1a 64-bit.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, DistinguishesNearbyStrings) {
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("acb"));
}

TEST(Mix64, IsInjectiveOnSmallRange) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(mix64(i)).second) << "collision at " << i;
  }
}

TEST(KarpRabin, RollMatchesDirectComputation) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = 7;
  KarpRabin roller(n);
  std::uint64_t rolled = roller.init(text);
  for (std::size_t i = 0; i + n <= text.size(); ++i) {
    KarpRabin fresh(n);
    const std::uint64_t direct =
        fresh.init(std::string_view(text).substr(i));
    EXPECT_EQ(rolled, direct) << "at offset " << i;
    if (i + n < text.size()) {
      rolled = roller.roll(text[i], text[i + n]);
    }
  }
}

TEST(KarpRabin, EqualNgramsHashEqual) {
  KarpRabin a(5), b(5);
  EXPECT_EQ(a.init("abcdef"), b.init("abcdeX"));  // only first 5 chars used
}

// ---- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ZipfFavoursLowRanks) {
  Rng rng(13);
  std::size_t low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t r = rng.zipf(1000, 1.2);
    EXPECT_LT(r, 1000u);
    if (r < 10) ++low;
    if (r >= 500) ++high;
  }
  EXPECT_GT(low, high * 2);
}

TEST(Rng, GaussianMeanApproximatelyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(50.0, 10.0);
  EXPECT_NEAR(sum / n, 50.0, 0.5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---- strings -----------------------------------------------------------------

TEST(Strings, ToLower) {
  EXPECT_EQ(toLower("Hello World!"), "hello world!");
  EXPECT_EQ(toLower(""), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t\n abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitParagraphsBasic) {
  const auto paras = splitParagraphs("first para\n\nsecond para\n\n\nthird");
  ASSERT_EQ(paras.size(), 3u);
  EXPECT_EQ(paras[0], "first para");
  EXPECT_EQ(paras[1], "second para");
  EXPECT_EQ(paras[2], "third");
}

TEST(Strings, SplitParagraphsSingleNewlineIsNotABoundary) {
  const auto paras = splitParagraphs("line one\nline two");
  ASSERT_EQ(paras.size(), 1u);
}

TEST(Strings, SplitParagraphsBlankLineWithSpaces) {
  const auto paras = splitParagraphs("a\n   \nb");
  ASSERT_EQ(paras.size(), 2u);
}

TEST(Strings, SplitParagraphsEmptyInput) {
  EXPECT_TRUE(splitParagraphs("").empty());
  EXPECT_TRUE(splitParagraphs("\n\n\n").empty());
}

TEST(Strings, SplitWords) {
  const auto words = splitWords("  the quick\tbrown\nfox ");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "the");
  EXPECT_EQ(words[3], "fox");
}

TEST(Strings, Join) {
  EXPECT_EQ(join(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ", "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("https://x.com/y", "https://"));
  EXPECT_FALSE(startsWith("http://", "https://"));
  EXPECT_TRUE(endsWith("file.html", ".html"));
  EXPECT_FALSE(endsWith("html", ".html"));
}

TEST(Strings, ContainsIgnoreCase) {
  EXPECT_TRUE(containsIgnoreCase("MyArticleBody", "article"));
  EXPECT_TRUE(containsIgnoreCase("FOOTER", "footer"));
  EXPECT_FALSE(containsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(containsIgnoreCase("anything", ""));
}

// ---- stats -------------------------------------------------------------------

TEST(Stats, PercentileBounds) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Stats, PercentileEmpty) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 95), 0.0);
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean(std::vector<int>{1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<int>{}), 0.0);
}

TEST(Stats, EmpiricalCdfReachesOne) {
  const auto cdf = empiricalCdf(std::vector<int>{3, 1, 2, 2});
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  // Duplicates collapse: 3 distinct values.
  EXPECT_EQ(cdf.size(), 3u);
}

// ---- clocks -------------------------------------------------------------------

TEST(LogicalClock, StrictlyIncreasing) {
  LogicalClock clock;
  const Timestamp a = clock.now();
  const Timestamp b = clock.now();
  EXPECT_LT(a, b);
}

TEST(LogicalClock, AdvanceTo) {
  LogicalClock clock;
  clock.advanceTo(100);
  EXPECT_GE(clock.now(), 100u);
  clock.advanceTo(50);  // no going back
  EXPECT_GT(clock.now(), 100u);
}

// ---- result -------------------------------------------------------------------

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  auto err = Result<int>::error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.errorMessage(), "boom");
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  auto e = Status::error("nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.errorMessage(), "nope");
}

}  // namespace
}  // namespace bf::util
