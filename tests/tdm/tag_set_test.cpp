// Tests for TagSet — the label lattice primitive of the TDM.
#include <gtest/gtest.h>

#include "tdm/tag_set.h"

namespace bf::tdm {
namespace {

TEST(TagSet, EmptyIsSubsetOfEverything) {
  TagSet empty;
  EXPECT_TRUE(empty.isSubsetOf(TagSet{}));
  EXPECT_TRUE(empty.isSubsetOf(TagSet{"a", "b"}));
}

TEST(TagSet, SubsetSemantics) {
  TagSet small{"a"};
  TagSet big{"a", "b"};
  EXPECT_TRUE(small.isSubsetOf(big));
  EXPECT_FALSE(big.isSubsetOf(small));
  EXPECT_TRUE(big.isSubsetOf(big));  // reflexive
}

TEST(TagSet, PaperFlowExample) {
  // Fig. 3: {ti} ⊄ {tw} — Interview Tool data may not reach the Wiki.
  TagSet li{"ti"};
  TagSet lp{"tw"};
  EXPECT_FALSE(li.isSubsetOf(lp));
  // And {} ⊆ {tw} — Google Docs (public) data may.
  EXPECT_TRUE(TagSet{}.isSubsetOf(lp));
}

TEST(TagSet, InsertEraseContains) {
  TagSet s;
  s.insert("x");
  EXPECT_TRUE(s.contains("x"));
  EXPECT_EQ(s.size(), 1u);
  s.insert("x");  // idempotent
  EXPECT_EQ(s.size(), 1u);
  s.erase("x");
  EXPECT_FALSE(s.contains("x"));
  EXPECT_TRUE(s.empty());
}

TEST(TagSet, UnionWith) {
  TagSet a{"x", "y"};
  TagSet b{"y", "z"};
  const TagSet u = a.unionWith(b);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_TRUE(a.isSubsetOf(u));
  EXPECT_TRUE(b.isSubsetOf(u));
}

TEST(TagSet, Minus) {
  TagSet a{"x", "y", "z"};
  const TagSet d = a.minus(TagSet{"y"});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_FALSE(d.contains("y"));
}

TEST(TagSet, MissingFrom) {
  TagSet li{"a", "b", "c"};
  const auto missing = li.missingFrom(TagSet{"b"});
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], "a");
  EXPECT_EQ(missing[1], "c");
}

TEST(TagSet, SubsetLatticeProperties) {
  // Transitivity over a small sweep of generated sets.
  const TagSet a{"1"};
  const TagSet b{"1", "2"};
  const TagSet c{"1", "2", "3"};
  EXPECT_TRUE(a.isSubsetOf(b));
  EXPECT_TRUE(b.isSubsetOf(c));
  EXPECT_TRUE(a.isSubsetOf(c));
  // Union is an upper bound.
  EXPECT_TRUE(a.isSubsetOf(a.unionWith(c)));
}

TEST(TagSet, ToString) {
  EXPECT_EQ(TagSet{}.toString(), "{}");
  EXPECT_EQ((TagSet{"b", "a"}).toString(), "{a, b}");  // sorted
}

// Randomised lattice-law sweep over generated tag sets.
class TagSetLattice : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static TagSet randomSet(std::uint64_t seed, int salt) {
    TagSet s;
    std::uint64_t x = seed * 1315423911u + static_cast<std::uint64_t>(salt);
    const int n = static_cast<int>(x % 6);
    for (int i = 0; i < n; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::string tag = "t";
      tag += std::to_string(x % 8);
      s.insert(std::move(tag));
    }
    return s;
  }
};

TEST_P(TagSetLattice, UnionAndDifferenceLaws) {
  const std::uint64_t seed = GetParam();
  const TagSet a = randomSet(seed, 1);
  const TagSet b = randomSet(seed, 2);
  const TagSet c = randomSet(seed, 3);

  // Union: commutative, idempotent, upper bound.
  EXPECT_EQ(a.unionWith(b), b.unionWith(a));
  EXPECT_EQ(a.unionWith(a), a);
  EXPECT_TRUE(a.isSubsetOf(a.unionWith(b)));
  // Associativity.
  EXPECT_EQ(a.unionWith(b).unionWith(c), a.unionWith(b.unionWith(c)));
  // Difference: (a − b) ⊆ a and disjoint from b.
  const TagSet d = a.minus(b);
  EXPECT_TRUE(d.isSubsetOf(a));
  for (const Tag& t : d) EXPECT_FALSE(b.contains(t));
  // (a − b) ∪ (a ∩ b-ish): a − b plus b covers a.
  EXPECT_TRUE(a.isSubsetOf(d.unionWith(b)));
  // Subset antisymmetry.
  if (a.isSubsetOf(b) && b.isSubsetOf(a)) {
    EXPECT_EQ(a, b);
  }
  // missingFrom agrees with minus.
  const auto missing = a.missingFrom(b);
  EXPECT_EQ(missing.size(), a.minus(b).size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TagSetLattice,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace bf::tdm
