// Tests for snapshot export/import and encrypted persistence (paper S4.4).
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "corpus/text_generator.h"
#include "flow/snapshot.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "util/binary_io.h"
#include "util/crc32c.h"

namespace bf::flow {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : rng_(31), gen_(&rng_), tracker_(TrackerConfig{}, &clock_) {}

  ~SnapshotTest() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  /// Populates the tracker with a few documents and returns one secret
  /// paragraph to probe with.
  std::string populate() {
    std::string probe;
    for (int i = 0; i < 5; ++i) {
      const std::string text = gen_.paragraph(6, 8) + "\n\n" +
                               gen_.paragraph(6, 8);
      if (i == 2) probe = std::string(text.substr(0, text.find("\n\n")));
      tracker_.observeDocument("doc" + std::to_string(i), "svc", text);
    }
    return probe;
  }

  /// A /tmp path private to this process and test, removed when the test
  /// ends: ctest runs tests as concurrent processes.
  std::string tempPath(const char* name) {
    paths_.push_back(
        "/tmp/bf_snapshot_test_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + name);
    return paths_.back();
  }

  /// The BFSNAPS4 blob saveSnapshot() writes for `sequence`: a plaintext
  /// save stores it as is.
  std::string sequencedBlob(std::uint64_t sequence) {
    const std::string path = tempPath("sequenced");
    EXPECT_TRUE(saveSnapshot(tracker_, path, "", sequence).ok());
    util::Result<std::string> blob = io::defaultVfs().readFile(path);
    EXPECT_TRUE(blob.ok());
    return blob.ok() ? std::move(blob.value()) : std::string();
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  FlowTracker tracker_;
  std::vector<std::string> paths_;
};

TEST_F(SnapshotTest, ExportImportRoundTripPreservesQueries) {
  const std::string probe = populate();
  const auto before = tracker_.checkText(probe, "elsewhere");
  ASSERT_FALSE(before.empty());

  const std::string blob = exportState(tracker_);
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = importState(restored, blob);
  ASSERT_TRUE(maxTs.ok()) << maxTs.errorMessage();
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);

  const auto after = restored.checkText(probe, "elsewhere");
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].sourceName, before[i].sourceName);
    EXPECT_DOUBLE_EQ(after[i].score, before[i].score);
  }
  EXPECT_EQ(restored.segmentDb().size(), tracker_.segmentDb().size());
  EXPECT_EQ(restored.hashDb().distinctHashCount(SegmentKind::kParagraph),
            tracker_.hashDb().distinctHashCount(SegmentKind::kParagraph));
}

TEST_F(SnapshotTest, ExportIsDeterministic) {
  populate();
  EXPECT_EQ(exportState(tracker_), exportState(tracker_));
}

TEST_F(SnapshotTest, AuthorityOrderSurvivesRoundTrip) {
  // The older owner must stay authoritative after restore.
  const std::string shared = gen_.paragraph(8, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "old#p0", "old", "svc",
                          shared);
  tracker_.observeSegment(SegmentKind::kParagraph, "new#p0", "new", "svc",
                          shared + " " + gen_.sentence());

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = importState(restored, exportState(tracker_));
  ASSERT_TRUE(maxTs.ok());
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);

  const auto hits = restored.checkText(shared, "probe");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sourceName, "old#p0");
}

TEST_F(SnapshotTest, EqualStampsKeepTheirOwnerOrderAcrossARoundTrip) {
  // Owners first seen at the same stamp (a wall clock or a restore gives
  // them; the logical clock does not) stay in arrival order in a history,
  // so the first to arrive is the oldest owner. Export must write them in
  // that order, which import re-creates: 40 owners of one stamp per hash
  // are more than introsort leaves to its stable insertion pass.
  constexpr SegmentKind kPar = SegmentKind::kParagraph;
  constexpr SegmentKind kDoc = SegmentKind::kDocument;
  constexpr SegmentId kOwners = 40;
  for (SegmentId id = 1; id <= 2 * kOwners; ++id) {
    SegmentRecord rec;
    rec.id = id;
    rec.kind = id <= kOwners ? kPar : kDoc;
    rec.name = std::to_string(id);
    rec.document = rec.name;
    rec.service = "svc";
    tracker_.restoreSegment(rec);
  }
  const std::vector<text::Hash> hashes = {7, 0x10000, 0xfffffff0};
  for (std::size_t k = 0; k < hashes.size(); ++k) {
    // Arrival order is a different shuffle of the ids for every hash.
    std::vector<SegmentId> order;
    for (SegmentId i = 0; i < kOwners; ++i) {
      order.push_back(1 + (i * (7 + 2 * k) + 3 * k) % kOwners);
    }
    for (SegmentId id : order) {
      tracker_.restoreAssociation(kPar, hashes[k], id, 500);
      tracker_.restoreAssociation(kDoc, hashes[k], id + kOwners, 500);
    }
    ASSERT_EQ(tracker_.hashDb().oldestSegmentWith(kPar, hashes[k]),
              order.front());
  }

  const std::string blob = exportState(tracker_);
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  ASSERT_TRUE(importState(restored, blob).ok());
  EXPECT_EQ(exportState(restored), blob);
  for (const SegmentKind kind : {kPar, kDoc}) {
    for (text::Hash h : hashes) {
      EXPECT_EQ(restored.hashDb().oldestSegmentWith(kind, h),
                tracker_.hashDb().oldestSegmentWith(kind, h))
          << h;
      EXPECT_EQ(restored.hashDb().segmentsWith(kind, h),
                tracker_.hashDb().segmentsWith(kind, h))
          << h;
    }
  }
}

TEST_F(SnapshotTest, NewObservationsAfterImportSortAfterRestored) {
  const std::string shared = gen_.paragraph(8, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "old#p0", "old", "svc",
                          shared);

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = importState(restored, exportState(tracker_));
  ASSERT_TRUE(maxTs.ok());
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);

  // A new copy of the text must NOT steal authority from the restored one.
  restored.observeSegment(SegmentKind::kParagraph, "copy#p0", "copy", "svc",
                          shared);
  const auto hits = restored.checkText(shared, "probe");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sourceName, "old#p0");
}

TEST_F(SnapshotTest, ImportRequiresEmptyTracker) {
  populate();
  const std::string blob = exportState(tracker_);
  EXPECT_FALSE(importState(tracker_, blob).ok());
}

TEST_F(SnapshotTest, ImportRejectsGarbage) {
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_FALSE(importState(restored, "not a snapshot").ok());
  EXPECT_FALSE(importState(restored, "").ok());
}

TEST_F(SnapshotTest, ImportRejectsTruncatedBlob) {
  populate();
  std::string blob = exportState(tracker_);
  blob.resize(blob.size() / 2);
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_FALSE(importState(restored, blob).ok());
}

TEST_F(SnapshotTest, EncryptedFileRoundTrip) {
  const std::string probe = populate();
  const std::string path = tempPath("enc");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "org-secret").ok());

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = loadSnapshot(restored, path, "org-secret");
  ASSERT_TRUE(maxTs.ok()) << maxTs.errorMessage();
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);
  EXPECT_FALSE(restored.checkText(probe, "elsewhere").empty());
}

TEST_F(SnapshotTest, EncryptedFileDoesNotLeakPlaintextStructure) {
  populate();
  const std::string path = tempPath("leak");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "org-secret").ok());
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Segment names like "doc0#p0" must not appear in the ciphertext.
  EXPECT_EQ(data.find("doc0"), std::string::npos);
  EXPECT_EQ(data.find("svc"), std::string::npos);
}

TEST_F(SnapshotTest, WrongSecretFailsToLoad) {
  populate();
  const std::string path = tempPath("wrong");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "right-secret").ok());
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_FALSE(loadSnapshot(restored, path, "wrong-secret").ok());
}

TEST_F(SnapshotTest, EncryptedSnapshotNeedsSecret) {
  populate();
  const std::string path = tempPath("nosecret");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "s").ok());
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_FALSE(loadSnapshot(restored, path, "").ok());
}

TEST_F(SnapshotTest, PlaintextSnapshotWorksWithoutSecret) {
  const std::string probe = populate();
  const std::string path = tempPath("plain");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = loadSnapshot(restored, path, "");
  ASSERT_TRUE(maxTs.ok());
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);
  EXPECT_FALSE(restored.checkText(probe, "elsewhere").empty());
}

TEST_F(SnapshotTest, LoadMissingFileFails) {
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_FALSE(loadSnapshot(restored, "/tmp/definitely-missing-bf", "").ok());
}

TEST_F(SnapshotTest, FailedImportLeavesTrackerEmpty) {
  // Transactional import: a blob that validates only partway must leave
  // the tracker untouched (empty), not half-restored.
  populate();
  std::string blob = exportState(tracker_);
  blob.resize(blob.size() - 3);  // clip mid-record
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  ASSERT_FALSE(importState(restored, blob).ok());
  EXPECT_EQ(restored.segmentDb().size(), 0u);
  EXPECT_EQ(restored.hashDb().distinctHashCount(SegmentKind::kParagraph), 0u);
}

TEST_F(SnapshotTest, TruncatedSnapshotFileRejectedAndTrackerEmpty) {
  populate();
  const std::string path = tempPath("truncfile");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());

  // Simulate a crash mid-write: chop the file roughly in half.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() / 2);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_FALSE(loadSnapshot(restored, path, "").ok());
  EXPECT_EQ(restored.segmentDb().size(), 0u);
}

TEST_F(SnapshotTest, CorruptedSnapshotFileRejectedAndTrackerEmpty) {
  populate();
  const std::string path = tempPath("corruptfile");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Flip bytes in the length-prefixed middle of the blob so counts and
  // strings go inconsistent.
  for (std::size_t i = data.size() / 3; i < data.size() / 2; i += 7) {
    data[i] = static_cast<char>(data[i] ^ 0x5a);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto result = loadSnapshot(restored, path, "");
  if (!result.ok()) {
    EXPECT_EQ(restored.segmentDb().size(), 0u)
        << "rejected imports must be all-or-nothing";
  }
  // (If the flipped bytes happened to stay structurally valid the import
  // may succeed; the guarantee under test is only no-partial-state.)
}

/// Names in /tmp starting with the snapshot's basename + ".tmp" — the
/// sibling temp files saveSnapshot() must rename away or clean up.
std::vector<std::string> leftoverTempFiles(const std::string& path) {
  const std::string prefix =
      path.substr(path.find_last_of('/') + 1) + ".tmp";
  std::vector<std::string> found;
  DIR* dir = opendir("/tmp");
  if (dir == nullptr) return found;
  while (dirent* e = readdir(dir)) {
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0) {
      found.emplace_back(e->d_name);
    }
  }
  closedir(dir);
  return found;
}

TEST_F(SnapshotTest, SaveLeavesNoTempFileBehind) {
  populate();
  const std::string path = tempPath("atomic");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());
  EXPECT_TRUE(leftoverTempFiles(path).empty())
      << "temp file must be renamed away";
  std::ifstream fin(path);
  EXPECT_TRUE(fin.good());
}

TEST_F(SnapshotTest, ConcurrentSavesToSamePathStayIntact) {
  populate();
  const std::string path = tempPath("concurrent");
  // Racing saves of the SAME state must never rename interleaved content
  // over the target: each writer uses its own temp file, so whichever
  // rename lands last leaves a complete, loadable snapshot.
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back(
        [&] { EXPECT_TRUE(saveSnapshot(tracker_, path, "").ok()); });
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(leftoverTempFiles(path).empty());

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = loadSnapshot(restored, path, "");
  ASSERT_TRUE(maxTs.ok()) << maxTs.errorMessage();
  EXPECT_GT(restored.segmentDb().size(), 0u);
}

TEST_F(SnapshotTest, SaveOverwritesExistingSnapshotAtomically) {
  const std::string probe = populate();
  const std::string path = tempPath("rewrite");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());

  // Grow the tracker, save again over the same path, reload: the new
  // content must be visible (rename replaced the old file).
  const std::string extra = gen_.paragraph(8, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "late#p0", "late", "svc",
                          extra);
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = loadSnapshot(restored, path, "");
  ASSERT_TRUE(maxTs.ok());
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);
  EXPECT_FALSE(restored.checkText(extra, "probe").empty());
}

TEST_F(SnapshotTest, V2BlobCarriesSequenceAndRoundTrips) {
  const std::string probe = populate();
  const std::string blob = sequencedBlob(/*sequence=*/42);

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto info = importState(restored, blob);
  ASSERT_TRUE(info.ok()) << info.errorMessage();
  EXPECT_EQ(info.value().sequence, 42u);
  clock2.advanceTo(info.value().maxTimestamp + 1);
  EXPECT_FALSE(restored.checkText(probe, "elsewhere").empty());
  // Same logical state regardless of the container version.
  EXPECT_EQ(exportState(restored), exportState(tracker_));
}

TEST_F(SnapshotTest, V2BlobBitFlipFailsCrc) {
  populate();
  std::string blob = sequencedBlob(7);
  // Any single flipped bit anywhere in the blob must trip the trailer CRC.
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x01);
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto info = importState(restored, blob);
  ASSERT_FALSE(info.ok());
  EXPECT_NE(info.errorMessage().find("CRC"), std::string::npos);
  EXPECT_EQ(restored.segmentDb().size(), 0u);
}

TEST_F(SnapshotTest, EncryptedSnapshotBitFlipFailsAuthentication) {
  // ChaCha20 is malleable: without the keyed tag, a flipped ciphertext bit
  // decrypts to a blob with one flipped plaintext bit, which can slip past
  // a structural parse as a wrong hash. The tag must reject it up front.
  populate();
  const std::string path = tempPath("bitflip");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "org-secret").ok());

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x01);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto result = loadSnapshot(restored, path, "org-secret");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorMessage().find("authentication"), std::string::npos);
  EXPECT_EQ(restored.segmentDb().size(), 0u);
}

/// Hand-builds a BFSNAPP4 blob holding one segment with the given kind byte
/// and threshold (no grams, no associations).
std::string blobWithSegment(std::uint8_t kindByte, double threshold) {
  std::string blob = "BFSNAPP4";
  util::putU64(blob, 1);  // segment count
  util::putU64(blob, 1);  // id
  util::putU8(blob, kindByte);
  util::putStr(blob, "x#p0");
  util::putStr(blob, "x");
  util::putStr(blob, "svc");
  util::putF64(blob, threshold);
  util::putU64(blob, 1);  // createdAt
  util::putU64(blob, 1);  // updatedAt
  util::putU64(blob, 0);  // gram count
  util::putU64(blob, 0);  // paragraph associations
  util::putU64(blob, 0);  // document associations
  return blob;
}

TEST_F(SnapshotTest, ImportRejectsUnknownSegmentKindByte) {
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto result = importState(restored, blobWithSegment(7, 0.5));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorMessage().find("SegmentKind"), std::string::npos);
  EXPECT_EQ(restored.segmentDb().size(), 0u);
}

TEST_F(SnapshotTest, ImportRejectsOutOfRangeThresholds) {
  util::LogicalClock clock2;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 2.0, -0.25}) {
    FlowTracker restored(TrackerConfig{}, &clock2);
    const auto result = importState(restored, blobWithSegment(0, bad));
    ASSERT_FALSE(result.ok()) << "threshold " << bad << " must be rejected";
    EXPECT_NE(result.errorMessage().find("threshold"), std::string::npos);
    EXPECT_EQ(restored.segmentDb().size(), 0u);
  }
  // Sanity: the same blob with a legal threshold imports fine.
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_TRUE(importState(restored, blobWithSegment(0, 0.5)).ok());
}

struct BlobSegment {
  SegmentId id;
  SegmentKind kind;
  std::string name;
};

struct BlobRow {
  text::Hash hash;
  SegmentId segment;
  util::Timestamp firstSeen;
};

/// Hand-builds a BFSNAPP4 blob holding `segments` (document "x", no grams)
/// and the association rows of each kind.
std::string stateBlob(const std::vector<BlobSegment>& segments,
                      const std::vector<BlobRow>& paragraphRows,
                      const std::vector<BlobRow>& documentRows = {}) {
  std::string blob = "BFSNAPP4";
  util::putU64(blob, segments.size());
  for (const BlobSegment& seg : segments) {
    util::putU64(blob, seg.id);
    util::putU8(blob, static_cast<std::uint8_t>(seg.kind));
    util::putStr(blob, seg.name);
    util::putStr(blob, "x");
    util::putStr(blob, "svc");
    util::putF64(blob, 0.5);
    util::putU64(blob, 1);  // createdAt
    util::putU64(blob, 1);  // updatedAt
    util::putU64(blob, 0);  // gram count
  }
  for (const auto* rows : {&paragraphRows, &documentRows}) {
    util::putU64(blob, rows->size());
    for (const BlobRow& row : *rows) {
      util::putU32(blob, row.hash);
      util::putU64(blob, row.segment);
      util::putU64(blob, row.firstSeen);
    }
  }
  return blob;
}

TEST_F(SnapshotTest, ImportRejectsInconsistentSegmentReferences) {
  // Blobs whose rows disagree with their segment list used to import:
  // segment 0 (HashDb's empty-slot marker) counted one hash twice, a
  // duplicated id made segmentByName("x#p1") return x#p0's record, and a
  // row for an unlisted segment made it the hash's oldest owner, which
  // Algorithm 1 then attributes to no source.
  constexpr SegmentKind kPar = SegmentKind::kParagraph;
  constexpr SegmentKind kDoc = SegmentKind::kDocument;
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"segment 0 beside segment 1",
       stateBlob({{1, kPar, "x#p0"}}, {{42, 0, 1}, {42, 1, 2}})},
      {"two segments with id 1",
       stateBlob({{1, kPar, "x#p0"}, {1, kPar, "x#p1"}}, {})},
      {"row for unlisted segment 77",
       stateBlob({{1, kPar, "x#p0"}}, {{42, 77, 1}})},
      {"listed segment id 0", stateBlob({{0, kPar, "x#p0"}}, {})},
      {"two segments named x#p0",
       stateBlob({{1, kPar, "x#p0"}, {2, kPar, "x#p0"}}, {})},
      {"paragraph row for a document segment",
       stateBlob({{1, kDoc, "x"}}, {{42, 1, 1}})},
      {"document row for a paragraph segment",
       stateBlob({{1, kPar, "x#p0"}}, {}, {{42, 1, 1}})},
  };
  util::LogicalClock clock2;
  for (const auto& [what, blob] : cases) {
    SCOPED_TRACE(what);
    FlowTracker restored(TrackerConfig{}, &clock2);
    EXPECT_FALSE(importState(restored, blob).ok());
    EXPECT_EQ(restored.segmentDb().size(), 0u);
    EXPECT_EQ(restored.hashDb().distinctHashCount(kPar), 0u);
  }
  // Sanity: a consistent blob of the same shape imports.
  FlowTracker restored(TrackerConfig{}, &clock2);
  ASSERT_TRUE(importState(restored,
                          stateBlob({{1, kPar, "x#p0"}, {2, kPar, "x#p1"},
                                     {3, kDoc, "x"}},
                                    {{42, 1, 1}, {42, 2, 9}}, {{42, 3, 4}}))
                  .ok());
  EXPECT_EQ(restored.hashDb().distinctHashCount(kPar), 1u);
  EXPECT_EQ(*restored.hashDb().firstSeen(kPar, 42, 2), 9u);
  EXPECT_EQ(*restored.hashDb().firstSeen(kDoc, 42, 3), 4u);
}

TEST_F(SnapshotTest, ImportRejectsATruncatedRow) {
  // A blob cut short fails whole: the cuts drop the 8-byte document row
  // count, then 4, 12 and all 20 bytes of the last paragraph row with it.
  constexpr SegmentKind kPar = SegmentKind::kParagraph;
  const std::string whole =
      stateBlob({{1, kPar, "x#p0"}}, {{42, 1, 1}, {43, 1, 2}});
  util::LogicalClock clock2;
  for (std::size_t cut : {8u, 12u, 20u, 28u}) {
    SCOPED_TRACE(cut);
    FlowTracker restored(TrackerConfig{}, &clock2);
    EXPECT_FALSE(importState(restored, whole.substr(0, whole.size() - cut))
                     .ok());
    EXPECT_EQ(restored.segmentDb().size(), 0u);
    EXPECT_EQ(restored.hashDb().distinctHashCount(kPar), 0u);
  }
  FlowTracker restored(TrackerConfig{}, &clock2);
  EXPECT_TRUE(importState(restored, whole).ok());
}

TEST_F(SnapshotTest, ExportBytesArePinned) {
  // The export is the byte contract of snapshots and checkpoints. This
  // state covers what DBhash's storage layout must reproduce: multi-owner
  // hashes, re-observations, out-of-order restored stamps, a removal that
  // stays lazy beside a compaction, and segment ids past 2^32.
  constexpr SegmentKind kPar = SegmentKind::kParagraph;
  clock_.advanceTo(100);  // leaves room for older restored stamps
  const std::string shared =
      "the quarterly merger terms remain strictly confidential until the "
      "board approves the final valuation and the press release";
  tracker_.observeSegment(kPar, "a#p0", "a", "svc", shared);
  tracker_.observeSegment(kPar, "b#p0", "b", "svc",
                          shared + " next tuesday morning");
  tracker_.observeDocument("c", "svc",
                           "an unrelated opening paragraph about lunch plans "
                           "and the weather this week\n\n" +
                               shared);
  tracker_.observeSegment(kPar, "a#p0", "a", "svc",
                          shared + " and not a day before");
  const std::vector<text::Hash> hashes =
      tracker_.segmentByName("a#p0")->fingerprint.hashes();
  ASSERT_GE(hashes.size(), 8u);

  constexpr SegmentId kWide = (SegmentId{1} << 32) + 5;
  SegmentRecord wide;
  wide.id = kWide;
  wide.kind = kPar;
  wide.name = "r#p0";
  wide.document = "r";
  wide.service = "svc";
  wide.createdAt = 40;
  wide.updatedAt = 50;
  tracker_.restoreSegment(wide);
  for (std::size_t i = 0; i < hashes.size(); i += 2) {
    // Older than every observed owner: the wide id becomes the oldest.
    tracker_.restoreAssociation(kPar, hashes[i], kWide, 50);
  }
  for (std::size_t i = 1; i < hashes.size(); i += 3) {
    // Between the owners' stamps, and alone on a hash of its own.
    tracker_.restoreAssociation(kPar, hashes[i], kWide, 101);
    tracker_.restoreAssociation(kPar, 0xabc00000 + i, kWide, 90 + i);
  }

  // 66 removals: the 65th crosses the dead-set threshold and compacts, the
  // 66th stays lazy. Their ids continue past kWide.
  for (int i = 0; i < 66; ++i) {
    tracker_.observeSegment(kPar, "t#p" + std::to_string(i), "t", "svc",
                            "temporary note number " + std::to_string(i) +
                                " about " + shared.substr(0, 40));
  }
  for (int i = 0; i < 66; ++i) {
    tracker_.removeSegmentByName("t#p" + std::to_string(i));
  }
  tracker_.observeSegment(kPar, "d#p0", "d", "svc", shared);

  ASSERT_EQ(tracker_.segmentByName("r#p0")->id, kWide);
  ASSERT_GT(tracker_.segmentByName("d#p0")->id, kWide);
  ASSERT_EQ(tracker_.hashDb().segmentsWith(kPar, hashes[2]).front(), kWide);
  ASSERT_GE(tracker_.hashDb().segmentsWith(kPar, hashes[2]).size(), 3u);
  // Pinned at BFSNAPP4. The rows of a hash follow its history, so r#p0's
  // restores stamped 101 come after a#p0's observation at 101 (an order
  // by stamp alone left them in either order).
  const std::string blob = exportState(tracker_);
  EXPECT_EQ(blob.size(), 2224u);
  EXPECT_EQ(util::crc32c(blob), 0x831ddb67U);
  // Import re-creates every history, ties included.
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  ASSERT_TRUE(importState(restored, blob).ok());
  EXPECT_EQ(exportState(restored), blob);
  for (text::Hash h : hashes) {
    EXPECT_EQ(restored.hashDb().segmentsWith(kPar, h),
              tracker_.hashDb().segmentsWith(kPar, h));
  }
}

TEST_F(SnapshotTest, EncryptedSaveBytesArePinned) {
  // The sealed envelope is the byte contract of encrypted snapshot and
  // checkpoint files: the same tracker, secret and sequence must give the
  // same file, whichever code path writes it.
  const std::string shared =
      "the quarterly merger terms remain strictly confidential until the "
      "board approves the final valuation and the press release";
  tracker_.observeSegment(SegmentKind::kParagraph, "a#p0", "a", "svc",
                          shared);
  tracker_.observeDocument("b", "svc",
                           "an unrelated opening paragraph about lunch plans "
                           "and the weather this week\n\n" +
                               shared);
  const std::string path = tempPath("pinned_envelope");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "org-secret", 7).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(data.substr(0, 8), "BFSNAPE2");
  EXPECT_EQ(data.size(), 1293u);
  EXPECT_EQ(util::crc32c(data), 0x34637627U);
}

TEST_F(SnapshotTest, TagStrippedEnvelopeIsRejected) {
  // Downgrade attack on the encrypted envelope: relabel a BFSNAPE2 file as
  // the retired, untagged BFSNAPE1 (same key derivation and header layout)
  // and drop its 16-byte tag. Only a tag-checked envelope may load.
  populate();
  const std::string path = tempPath("tagstrip");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "org-secret", 7).ok());

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(data.substr(0, 8), "BFSNAPE2");
  data.replace(0, 8, "BFSNAPE1");
  data.resize(data.size() - 16);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto result = loadSnapshot(restored, path, "org-secret");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(restored.segmentDb().size(), 0u);
}

// ---- Injected storage faults (ISSUE 7 regression) -------------------------
// saveSnapshot under a failing disk must behave like the failure never
// started: no orphan .tmp sibling, previous good snapshot untouched.

TEST_F(SnapshotTest, SaveUnderEnospcLeavesNoOrphanAndKeepsOldSnapshot) {
  const std::string probe = populate();
  const std::string path = tempPath("enospc");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "").ok());

  tracker_.observeSegment(SegmentKind::kParagraph, "late#p0", "late", "svc",
                          gen_.paragraph(8, 8));
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/11);
  fault.failNext(".tmp", 1, io::StorageFaultKind::kEnospc);
  EXPECT_FALSE(saveSnapshot(tracker_, path, "", 0, &fault).ok());

  EXPECT_TRUE(leftoverTempFiles(path).empty())
      << "failed save must unlink its temp file";
  // The previous snapshot still loads and reflects the OLD state.
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  const auto maxTs = loadSnapshot(restored, path, "");
  ASSERT_TRUE(maxTs.ok()) << maxTs.errorMessage();
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);
  EXPECT_FALSE(restored.checkText(probe, "probe").empty());
  EXPECT_EQ(restored.segmentDb().findByName("late#p0"), nullptr);
}

TEST_F(SnapshotTest, SaveUnderShortWriteLeavesNoOrphanAndKeepsOldSnapshot) {
  populate();
  const std::string path = tempPath("shortwrite");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "sekrit").ok());
  const std::string before = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }();

  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/12);
  fault.failNext(".tmp", 1, io::StorageFaultKind::kShortWrite);
  EXPECT_FALSE(saveSnapshot(tracker_, path, "sekrit", 7, &fault).ok());

  EXPECT_TRUE(leftoverTempFiles(path).empty());
  const std::string after = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }();
  EXPECT_EQ(before, after) << "previous snapshot bytes must be untouched";
}

TEST_F(SnapshotTest, SaveUnderFsyncFailureLeavesNoOrphan) {
  populate();
  const std::string path = tempPath("fsyncfail");
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/13);
  fault.failNext(".tmp", 1, io::StorageFaultKind::kFsyncFail);
  // No previous snapshot: the failed save must not materialise one either.
  EXPECT_FALSE(saveSnapshot(tracker_, path, "", 0, &fault).ok());
  EXPECT_TRUE(leftoverTempFiles(path).empty());
  std::ifstream fin(path);
  EXPECT_FALSE(fin.good()) << "no target file may appear on failure";
}

TEST_F(SnapshotTest, SaveUnderOpenFailureReportsErrorCleanly) {
  populate();
  const std::string path = tempPath("openfail");
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/14);
  fault.failNext(".tmp", 1, io::StorageFaultKind::kOpenFail);
  EXPECT_FALSE(saveSnapshot(tracker_, path, "", 0, &fault).ok());
  EXPECT_TRUE(leftoverTempFiles(path).empty());
  // Retry with the schedule drained succeeds.
  EXPECT_TRUE(saveSnapshot(tracker_, path, "", 0, &fault).ok());
}

TEST_F(SnapshotTest, LoadDetectsReadCorruptionViaVfs) {
  populate();
  const std::string path = tempPath("readcorrupt");
  ASSERT_TRUE(saveSnapshot(tracker_, path, "sekrit", 3).ok());
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/15);
  fault.failNext("readcorrupt", 1, io::StorageFaultKind::kReadCorrupt);
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  // Encrypt-then-MAC: the flipped byte fails authentication outright.
  EXPECT_FALSE(loadSnapshot(restored, path, "sekrit", &fault).ok());
  EXPECT_EQ(restored.segmentDb().size(), 0u);
  // A clean read still round-trips.
  EXPECT_TRUE(loadSnapshot(restored, path, "sekrit", &fault).ok());
}

}  // namespace
}  // namespace bf::flow
