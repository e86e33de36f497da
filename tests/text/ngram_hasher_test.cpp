// Tests for n-gram hashing (paper S4.1 step S2).
#include <gtest/gtest.h>

#include <iterator>
#include <unordered_set>

#include "text/ngram_hasher.h"

namespace bf::text {
namespace {

TEST(NgramHasher, CountMatchesLength) {
  const auto n = normalize("helloworld");  // 10 chars
  const auto grams = hashNgrams(n, 6);
  // The paper's example: "helloworld" with 6-grams yields 5 hashes.
  EXPECT_EQ(grams.size(), 5u);
}

TEST(NgramHasher, TooShortYieldsNothing) {
  const auto n = normalize("abc");
  EXPECT_TRUE(hashNgrams(n, 6).empty());
}

TEST(NgramHasher, ExactLengthYieldsOne) {
  const auto n = normalize("abcdef");
  EXPECT_EQ(hashNgrams(n, 6).size(), 1u);
}

TEST(NgramHasher, PositionsAreSequential) {
  const auto n = normalize("abcdefghij");
  const auto grams = hashNgrams(n, 4);
  for (std::size_t i = 0; i < grams.size(); ++i) {
    EXPECT_EQ(grams[i].pos, i);
  }
}

TEST(NgramHasher, EqualNgramsGetEqualHashes) {
  const auto a = normalize("xyzabcxyz");
  const auto grams = hashNgrams(a, 3);
  // positions 0 ("xyz") and 6 ("xyz") must collide.
  EXPECT_EQ(grams[0].hash, grams[6].hash);
}

TEST(NgramHasher, PinnedGramHashes) {
  // A gram's text::Hash is the low 32 bits of mix64 over its Karp-Rabin
  // value. Pinned from the pipeline that masked a 64-bit hash to 32 bits:
  // the hashes every stored fingerprint holds must not change.
  const auto grams =
      hashNgrams(normalize("the quick brown fox jumps over the lazy dog"), 5);
  ASSERT_EQ(grams.size(), 31u);
  const Hash expected[] = {0x3412d751u, 0xe7abea07u, 0x079e989eu,
                           0xabf1edefu};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(grams[i].pos, i);
    EXPECT_EQ(grams[i].hash, expected[i]) << "gram " << i;
  }
}

TEST(NgramHasher, SameTextDifferentCasePunctuationHashesEqual) {
  const auto a = hashNgrams(normalize("Hello, World!"), 5);
  const auto b = hashNgrams(normalize("HELLO WORLD"), 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hash, b[i].hash);
  }
}

TEST(NgramHasher, FewCollisionsAcrossDistinctNgrams) {
  // mix64 post-mixing must keep the 32-bit hashes well spread.
  std::string text;
  for (int i = 0; i < 2000; ++i) text += static_cast<char>('a' + (i * 7) % 26);
  const auto grams = hashNgrams(normalize(text), 8);
  std::unordered_set<Hash> hashes;
  std::unordered_set<std::string> distinct;
  for (const auto& g : grams) {
    hashes.insert(g.hash);
    distinct.insert(text.substr(g.pos, 8));
  }
  // At least as many hash values as distinct n-grams minus a tiny margin.
  EXPECT_GE(hashes.size() + 3, distinct.size());
}

}  // namespace
}  // namespace bf::text
