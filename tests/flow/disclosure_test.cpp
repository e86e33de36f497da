// Tests for disclosure metrics and authoritative fingerprints (paper
// S4.2-S4.3), including the overlapping-documents scenario of Fig. 7.
#include <gtest/gtest.h>

#include "flow/disclosure.h"

namespace bf::flow {
namespace {

text::Fingerprint fpOf(std::initializer_list<text::Hash> hashes) {
  std::vector<text::HashedGram> grams;
  std::uint32_t pos = 0;
  for (auto h : hashes) grams.push_back({h, pos++});
  return text::Fingerprint::fromSelected(std::move(grams));
}

/// Registers a segment with the given hashes at time `ts` in both stores.
SegmentId addSegment(SegmentDb& segs, HashDb& hashes, const char* name,
                     std::initializer_list<text::Hash> hs,
                     util::Timestamp ts, double threshold = 0.5) {
  const SegmentId id =
      segs.create(SegmentKind::kParagraph, name, name, "svc", threshold, ts);
  segs.updateFingerprint(id, fpOf(hs), ts);
  for (auto h : hs) hashes.recordObservation(SegmentKind::kParagraph, h, id, ts);
  return id;
}

TEST(Disclosure, FullOverlapScoresOne) {
  SegmentDb segs;
  HashDb hashes;
  const SegmentId a = addSegment(segs, hashes, "A", {1, 2, 3}, 10);
  const auto target = fpOf({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(disclosureScore(*segs.find(a), target, hashes), 1.0);
}

TEST(Disclosure, PartialOverlap) {
  SegmentDb segs;
  HashDb hashes;
  const SegmentId a = addSegment(segs, hashes, "A", {1, 2, 3, 4}, 10);
  const auto target = fpOf({1, 2, 99});
  EXPECT_DOUBLE_EQ(disclosureScore(*segs.find(a), target, hashes), 0.5);
}

TEST(Disclosure, NoOverlapScoresZero) {
  SegmentDb segs;
  HashDb hashes;
  const SegmentId a = addSegment(segs, hashes, "A", {1, 2}, 10);
  EXPECT_DOUBLE_EQ(disclosureScore(*segs.find(a), fpOf({8, 9}), hashes), 0.0);
}

TEST(Disclosure, EmptySourceFingerprintScoresZero) {
  SegmentDb segs;
  HashDb hashes;
  const SegmentId a = addSegment(segs, hashes, "A", {}, 10);
  EXPECT_DOUBLE_EQ(disclosureScore(*segs.find(a), fpOf({1}), hashes), 0.0);
}

TEST(Disclosure, AuthoritativeHashesExcludeOlderOwners) {
  SegmentDb segs;
  HashDb hashes;
  const SegmentId a = addSegment(segs, hashes, "A", {1, 2}, 10);
  const SegmentId b = addSegment(segs, hashes, "B", {1, 2, 3, 4}, 20);
  // B's hashes 1,2 were first seen in A: only 3,4 are authoritative to B.
  const auto authB = authoritativeHashes(*segs.find(b), hashes);
  EXPECT_EQ(authB, (std::vector<text::Hash>{3, 4}));
  // A is the oldest owner of everything it has.
  const auto authA = authoritativeHashes(*segs.find(a), hashes);
  EXPECT_EQ(authA, (std::vector<text::Hash>{1, 2}));
}

TEST(Disclosure, Figure7OverlappingDocuments) {
  // Paper Fig. 7: B is a superset of A (with extra text). A's content is
  // copied to C. Naive containment would report BOTH A and B as disclosed
  // by C; the authoritative fingerprint confines the report to A.
  SegmentDb segs;
  HashDb hashes;
  // A has hashes {1..4}; B contains A plus its own {5..8} (threshold 0.5).
  const SegmentId a = addSegment(segs, hashes, "A", {1, 2, 3, 4}, 10);
  const SegmentId b =
      addSegment(segs, hashes, "B", {1, 2, 3, 4, 5, 6, 7, 8}, 20);
  // C receives the overlapping (A-origin) text only.
  const auto c = fpOf({1, 2, 3, 4});

  // Naive pairwise disclosure would flag both:
  const auto& recA = *segs.find(a);
  const auto& recB = *segs.find(b);
  EXPECT_GE(static_cast<double>(text::Fingerprint::intersectionSize(
                recB.fingerprint, c)) /
                static_cast<double>(recB.fingerprint.size()),
            0.5);

  // Authoritative disclosure flags A only.
  EXPECT_DOUBLE_EQ(disclosureScore(recA, c, hashes), 1.0);
  EXPECT_LT(disclosureScore(recB, c, hashes), 0.5);
}

TEST(Disclosure, DenominatorIsFullFingerprintNotAuthoritative) {
  // D = |F_auth(A) ∩ F(B)| / |F(A)| — the denominator stays |F(A)|.
  SegmentDb segs;
  HashDb hashes;
  addSegment(segs, hashes, "older", {1, 2}, 10);
  const SegmentId b = addSegment(segs, hashes, "B", {1, 2, 3, 4}, 20);
  // F_auth(B) = {3,4}; target holds all four.
  const auto target = fpOf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(disclosureScore(*segs.find(b), target, hashes), 0.5);
}

TEST(Disclosure, IsDisclosedRequiresNonEmptyOverlap) {
  // Threshold 0 means "any leaked hash" (paper S4.2), not "always".
  EXPECT_FALSE(isDisclosed(0.0, 0, 0.0));
  EXPECT_TRUE(isDisclosed(0.01, 1, 0.0));
}

TEST(Disclosure, IsDisclosedAtThresholdBoundary) {
  EXPECT_TRUE(isDisclosed(0.5, 3, 0.5));
  EXPECT_FALSE(isDisclosed(0.49, 3, 0.5));
  EXPECT_TRUE(isDisclosed(1.0, 5, 1.0));
}

TEST(Disclosure, RemovingOlderOwnerPromotesAuthority) {
  SegmentDb segs;
  HashDb hashes;
  const SegmentId a = addSegment(segs, hashes, "A", {1, 2}, 10);
  const SegmentId b = addSegment(segs, hashes, "B", {1, 2, 3}, 20);
  EXPECT_EQ(authoritativeHashes(*segs.find(b), hashes).size(), 1u);
  hashes.removeSegment(SegmentKind::kParagraph, a);
  segs.remove(a);
  EXPECT_EQ(authoritativeHashes(*segs.find(b), hashes).size(), 3u);
}

}  // namespace
}  // namespace bf::flow
