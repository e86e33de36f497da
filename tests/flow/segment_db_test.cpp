// Tests for SegmentDb ("DBpar", paper S4.3).
#include <gtest/gtest.h>

#include "flow/segment_db.h"

namespace bf::flow {
namespace {

text::Fingerprint fpOf(std::initializer_list<text::Hash> hashes) {
  std::vector<text::HashedGram> grams;
  std::uint32_t pos = 0;
  for (auto h : hashes) grams.push_back({h, pos++});
  return text::Fingerprint::fromSelected(std::move(grams));
}

TEST(SegmentDb, CreateAndFind) {
  SegmentDb db;
  const SegmentId id = db.create(SegmentKind::kParagraph, "doc#p0", "doc",
                                 "svc", 0.5, 1);
  const SegmentRecord* rec = db.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->name, "doc#p0");
  EXPECT_EQ(rec->document, "doc");
  EXPECT_EQ(rec->service, "svc");
  EXPECT_DOUBLE_EQ(rec->threshold, 0.5);
  EXPECT_EQ(rec->kind, SegmentKind::kParagraph);
}

TEST(SegmentDb, IdsAreUniqueAndNonZero) {
  SegmentDb db;
  const SegmentId a = db.create(SegmentKind::kParagraph, "a", "d", "s", 0.5, 1);
  const SegmentId b = db.create(SegmentKind::kParagraph, "b", "d", "s", 0.5, 1);
  EXPECT_NE(a, kInvalidSegment);
  EXPECT_NE(a, b);
}

TEST(SegmentDb, FindByName) {
  SegmentDb db;
  db.create(SegmentKind::kDocument, "mydoc", "mydoc", "svc", 0.4, 1);
  const SegmentRecord* rec = db.findByName("mydoc");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->kind, SegmentKind::kDocument);
  EXPECT_EQ(db.findByName("nope"), nullptr);
}

TEST(SegmentDb, UpdateFingerprintStoresLatest) {
  SegmentDb db;
  const SegmentId id =
      db.create(SegmentKind::kParagraph, "p", "d", "s", 0.5, 1);
  db.updateFingerprint(id, fpOf({1, 2, 3}), 2);
  EXPECT_EQ(db.find(id)->fingerprint.size(), 3u);
  db.updateFingerprint(id, fpOf({9}), 3);
  EXPECT_EQ(db.find(id)->fingerprint.size(), 1u);  // only the last one
  EXPECT_EQ(db.find(id)->updatedAt, 3u);
}

TEST(SegmentDb, SetThreshold) {
  SegmentDb db;
  const SegmentId id =
      db.create(SegmentKind::kParagraph, "p", "d", "s", 0.5, 1);
  db.setThreshold(id, 0.8);
  EXPECT_DOUBLE_EQ(db.find(id)->threshold, 0.8);
}

TEST(SegmentDb, RemoveFreesName) {
  SegmentDb db;
  const SegmentId id =
      db.create(SegmentKind::kParagraph, "p", "d", "s", 0.5, 1);
  db.remove(id);
  EXPECT_EQ(db.find(id), nullptr);
  EXPECT_EQ(db.findByName("p"), nullptr);
  // The name can be reused with a fresh id.
  const SegmentId id2 =
      db.create(SegmentKind::kParagraph, "p", "d", "s", 0.5, 2);
  EXPECT_NE(id2, id);
}

TEST(SegmentDb, ForEachVisitsAllLive) {
  SegmentDb db;
  db.create(SegmentKind::kParagraph, "a", "d", "s", 0.5, 1);
  const SegmentId b =
      db.create(SegmentKind::kParagraph, "b", "d", "s", 0.5, 1);
  db.remove(b);
  std::size_t count = 0;
  db.forEach([&](const SegmentRecord&) { ++count; });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(db.size(), 1u);
}

}  // namespace
}  // namespace bf::flow
