// Tests for disclosure attribution (paper S4.1): mapping a detected
// disclosure back to the source passages that caused it.
#include <gtest/gtest.h>

#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "flow/tracker.h"
#include "util/clock.h"

namespace bf::flow {
namespace {

class AttributionTest : public ::testing::Test {
 protected:
  AttributionTest()
      : rng_(8), gen_(&rng_), tracker_(TrackerConfig{}, &clock_) {}

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  FlowTracker tracker_;
};

TEST_F(AttributionTest, FullCopyAttributesMostOfTheSource) {
  const std::string secret = gen_.paragraph(7, 9);
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", secret);
  const auto ranges =
      tracker_.attributeDisclosure(src, tracker_.fingerprintOf(secret));
  ASSERT_FALSE(ranges.empty());
  std::size_t covered = 0;
  for (const auto& [b, e] : ranges) {
    ASSERT_LT(b, e);
    ASSERT_LE(e, secret.size() + 15);  // ranges stay within the source
    covered += e - b;
  }
  // A verbatim copy implicates the bulk of the source text.
  EXPECT_GT(static_cast<double>(covered),
            0.5 * static_cast<double>(secret.size()));
}

TEST_F(AttributionTest, PartialCopyPointsAtTheCopiedHalf) {
  const std::string first = gen_.paragraph(6, 6);
  const std::string second = gen_.paragraph(6, 6);
  const std::string source = first + " " + second;
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", source);

  // Leak only the SECOND half.
  const auto ranges =
      tracker_.attributeDisclosure(src, tracker_.fingerprintOf(second));
  ASSERT_FALSE(ranges.empty());
  // Every attributed byte lies in the second half (with n-gram slack).
  for (const auto& [b, e] : ranges) {
    EXPECT_GT(e, first.size() / 2) << "attribution fell in the wrong half";
    EXPECT_GE(b + 45, first.size())
        << "range [" << b << "," << e << ") starts deep in the first half";
  }
}

TEST_F(AttributionTest, SameHashEditMovesTheRanges) {
  // Spaces typed mid-paragraph leave the hash set as it was (normalization
  // drops them) but move every later gram: attribution must follow the
  // current text, as a fresh tracker's does, while updatedAt, DBhash and
  // the cached disclosure answer stay as they were.
  const std::string text = gen_.paragraph(7, 9);
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", text);
  (void)tracker_.sourcesForSegment(src);
  std::string edited = text;
  edited.insert(edited.size() / 2, "   ");
  edited.insert(edited.size() / 4, " ,");
  const text::Fingerprint fp = tracker_.fingerprintOf(edited);
  ASSERT_TRUE(fp.sameHashes(tracker_.fingerprintOf(text)));
  const util::Timestamp updatedAt = tracker_.segmentByName("src#p0")->updatedAt;
  const std::size_t associations = tracker_.hashDb().associationCount(
      SegmentKind::kParagraph);
  const testutil::CounterDelta delta;
  EXPECT_EQ(tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src",
                                    "svc", edited),
            src);
  (void)tracker_.sourcesForSegment(src);
  EXPECT_EQ(delta("bf_tracker_cache_hits_total"), 1u);
  EXPECT_EQ(tracker_.segmentByName("src#p0")->updatedAt, updatedAt);
  EXPECT_EQ(tracker_.hashDb().associationCount(SegmentKind::kParagraph),
            associations);
  EXPECT_EQ(tracker_.segmentByName("src#p0")->fingerprint.grams(), fp.grams());

  util::LogicalClock freshClock;
  FlowTracker fresh(TrackerConfig{}, &freshClock);
  const SegmentId freshSrc = fresh.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", edited);
  const std::string copied = edited.substr(edited.size() / 2);
  const auto ranges =
      tracker_.attributeDisclosure(src, tracker_.fingerprintOf(copied));
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges,
            fresh.attributeDisclosure(freshSrc, fresh.fingerprintOf(copied)));
}

TEST_F(AttributionTest, NoOverlapNoRanges) {
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", gen_.paragraph(7, 9));
  EXPECT_TRUE(
      tracker_
          .attributeDisclosure(src,
                               tracker_.fingerprintOf(gen_.paragraph(7, 9)))
          .empty());
}

TEST_F(AttributionTest, UnknownSegmentOrEmptyTarget) {
  EXPECT_TRUE(tracker_.attributeDisclosure(999, tracker_.fingerprintOf("x"))
                  .empty());
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", gen_.paragraph(7, 9));
  EXPECT_TRUE(
      tracker_.attributeDisclosure(src, text::Fingerprint{}).empty());
}

TEST_F(AttributionTest, RangesAreSortedAndDisjoint) {
  const std::string a = gen_.paragraph(5, 5);
  const std::string b = gen_.paragraph(5, 5);
  const std::string c = gen_.paragraph(5, 5);
  const std::string source = a + " " + b + " " + c;
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", source);
  // Leak the first and last thirds.
  const auto ranges = tracker_.attributeDisclosure(
      src, tracker_.fingerprintOf(a + " " + c));
  ASSERT_FALSE(ranges.empty());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second);
  }
}

TEST_F(AttributionTest, AuthoritativeFilteringApplies) {
  // A second copy of the same text owns nothing: attribution on it is
  // empty, pointing auditors at the true origin instead.
  const std::string secret = gen_.paragraph(7, 9);
  tracker_.observeSegment(SegmentKind::kParagraph, "orig#p0", "orig", "svc",
                          secret);
  const SegmentId copy = tracker_.observeSegment(
      SegmentKind::kParagraph, "copy#p0", "copy", "svc", secret);
  EXPECT_TRUE(
      tracker_.attributeDisclosure(copy, tracker_.fingerprintOf(secret))
          .empty());
}

TEST_F(AttributionTest, PositionsSurviveNormalization) {
  // Punctuation/case in the source must not skew attribution offsets.
  const std::string noise = gen_.paragraph(6, 6);
  const std::string sensitive =
      "THE, SECRET!!! Launch--Date is: March the third, twenty twenty six, "
      "and the code name is Operation Blue Harvest, as decided last week.";
  const std::string source = noise + " " + sensitive;
  const SegmentId src = tracker_.observeSegment(
      SegmentKind::kParagraph, "src#p0", "src", "svc", source);
  const auto ranges = tracker_.attributeDisclosure(
      src, tracker_.fingerprintOf(sensitive));
  ASSERT_FALSE(ranges.empty());
  for (const auto& [b, e] : ranges) {
    EXPECT_GE(b + 45, noise.size()) << "attribution leaked into the noise";
    EXPECT_LE(e, source.size() + 15);
  }
}

}  // namespace
}  // namespace bf::flow
