// Tests for the Aho-Corasick multi-pattern matcher.
#include <gtest/gtest.h>

#include "text/aho_corasick.h"
#include "text/normalizer.h"
#include "util/rng.h"

namespace bf::text {
namespace {

TEST(AhoCorasick, EmptyAutomatonMatchesNothing) {
  AhoCorasick ac;
  EXPECT_FALSE(ac.containsAny("anything at all"));
  EXPECT_TRUE(ac.findAll("anything").empty());
  EXPECT_EQ(ac.patternCount(), 0u);
}

TEST(AhoCorasick, SinglePattern) {
  AhoCorasick ac;
  ac.addPattern("needle", 1);
  EXPECT_TRUE(ac.containsAny("hay needle hay"));
  EXPECT_FALSE(ac.containsAny("haystack only"));
  const auto matches = ac.findAll("needle at start, needle at end needle");
  EXPECT_EQ(matches.size(), 3u);
}

TEST(AhoCorasick, MatchPositionsAndLengths) {
  AhoCorasick ac;
  ac.addPattern("abc", 7);
  const auto matches = ac.findAll("xxabcxx");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 7u);
  EXPECT_EQ(matches[0].end, 5u);
  EXPECT_EQ(matches[0].length, 3u);
}

TEST(AhoCorasick, OverlappingPatterns) {
  AhoCorasick ac;
  ac.addPattern("he", 1);
  ac.addPattern("she", 2);
  ac.addPattern("hers", 3);
  ac.addPattern("his", 4);
  const auto matches = ac.findAll("ushers");
  // "ushers" contains "she" (ends 4), "he" (ends 4), "hers" (ends 6).
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].id, 2u);
  EXPECT_EQ(matches[1].id, 1u);
  EXPECT_EQ(matches[2].id, 3u);
}

TEST(AhoCorasick, PatternInsidePattern) {
  AhoCorasick ac;
  ac.addPattern("issi", 1);
  ac.addPattern("mississippi", 2);
  const auto matches = ac.findAll("mississippi");
  // "issi" at ends 5 and 8, plus the whole word.
  EXPECT_EQ(matches.size(), 3u);
}

TEST(AhoCorasick, EmptyPatternIgnored) {
  AhoCorasick ac;
  ac.addPattern("", 1);
  EXPECT_EQ(ac.patternCount(), 0u);
  EXPECT_FALSE(ac.containsAny("abc"));
}

TEST(AhoCorasick, BinaryBytesSupported) {
  AhoCorasick ac;
  const std::string pattern("\x00\xff\x80", 3);
  ac.addPattern(pattern, 9);
  const std::string hay = std::string("aa") + pattern + "bb";
  EXPECT_TRUE(ac.containsAny(hay));
}

TEST(AhoCorasick, AddAfterSearchRebuilds) {
  AhoCorasick ac;
  ac.addPattern("first", 1);
  EXPECT_TRUE(ac.containsAny("the first one"));
  ac.addPattern("second", 2);  // triggers rebuild on next search
  EXPECT_TRUE(ac.containsAny("the second one"));
  EXPECT_TRUE(ac.containsAny("the first one"));
}

TEST(AhoCorasick, ManyPatternsStressAgainstNaiveSearch) {
  util::Rng rng(17);
  std::vector<std::string> patterns;
  AhoCorasick ac;
  for (int i = 0; i < 50; ++i) {
    std::string p;
    const std::size_t len = rng.uniform(3, 8);
    for (std::size_t k = 0; k < len; ++k) {
      p.push_back(static_cast<char>('a' + rng.uniform(0, 3)));  // tiny alphabet
    }
    patterns.push_back(p);
    ac.addPattern(p, static_cast<std::uint64_t>(i));
  }
  std::string hay;
  for (int k = 0; k < 2000; ++k) {
    hay.push_back(static_cast<char>('a' + rng.uniform(0, 3)));
  }
  // Count matches naively and compare.
  std::size_t naive = 0;
  for (const auto& p : patterns) {
    for (std::size_t pos = hay.find(p); pos != std::string::npos;
         pos = hay.find(p, pos + 1)) {
      ++naive;
    }
  }
  EXPECT_EQ(ac.findAll(hay).size(), naive);
}

TEST(AhoCorasick, MappedWalkMatchesNormalizedText) {
  // An automaton over kNormTable reads raw text and must report exactly
  // the matches a verbatim automaton reports on the normalized text, in
  // the same order, ending at the raw byte that completed each one.
  util::Rng rng(29);
  AhoCorasick mapped(kNormTable);
  AhoCorasick verbatim;
  for (int i = 0; i < 40; ++i) {
    std::string p;
    const std::size_t len = rng.uniform(1, 6);
    for (std::size_t k = 0; k < len; ++k) {
      p.push_back(rng.uniform(0, 7) == 0
                      ? static_cast<char>(rng.uniform(0x80, 0x82))
                      : static_cast<char>('a' + rng.uniform(0, 2)));
    }
    mapped.addPattern(p, static_cast<std::uint64_t>(i));
    verbatim.addPattern(p, static_cast<std::uint64_t>(i));
  }
  for (int t = 0; t < 50; ++t) {
    std::string raw;
    const std::size_t len = rng.uniform(0, 300);
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint64_t r = rng.uniform(0, 9);
      raw.push_back(r < 5   ? static_cast<char>('a' + rng.uniform(0, 2))
                    : r < 7 ? static_cast<char>('A' + rng.uniform(0, 2))
                    : r < 8 ? static_cast<char>(rng.uniform(0x80, 0x82))
                            : " .\t-\0"[rng.uniform(0, 4)]);
    }
    const NormalizedText norm = normalize(raw);
    const auto expected = verbatim.findAll(norm.text);
    const auto got = mapped.findAll(raw);
    ASSERT_EQ(got.size(), expected.size()) << "text " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_EQ(got[i].length, expected[i].length);
      EXPECT_EQ(got[i].end, norm.originalOffset[expected[i].end - 1] + 1);
    }
    EXPECT_EQ(mapped.containsAny(raw), !expected.empty());
  }
}

}  // namespace
}  // namespace bf::text
