// The byte layout of the tracker's state files, hand-encoded with
// util::put* so the tests pin the layout itself: the BFWAL002 log's
// kSegmentObserved record and the v4 snapshot body (flow/wal.h,
// flow/snapshot.h). Retired layouts — BFWAL001 logs, WAL record types 2
// and 5, v3 snapshots — are rejected: a log all or up to the first bad
// frame, a snapshot all or nothing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "flow/snapshot.h"
#include "flow/wal.h"
#include "io/vfs.h"
#include "util/binary_io.h"
#include "util/clock.h"
#include "util/crc32c.h"

namespace bf::flow {
namespace {

struct Gram {
  text::Hash hash;
  std::uint32_t pos;
};

struct Segment {
  SegmentId id;
  const char* name;
  std::vector<Gram> grams;
  util::Timestamp at;
};

const Segment kFirst{1, "a#p0", {{11, 0}, {22, 5}, {33, 9}}, 3};
const Segment kSecond{2, "b#p0", {{22, 0}, {44, 7}}, 4};

SegmentRecord recordOf(const Segment& s) {
  SegmentRecord rec;
  rec.id = s.id;
  rec.name = s.name;
  rec.document = s.name;
  rec.service = "svc";
  std::vector<text::HashedGram> grams;
  for (const Gram& g : s.grams) grams.push_back({g.hash, g.pos});
  rec.fingerprint = text::Fingerprint::fromSelected(std::move(grams));
  rec.createdAt = s.at;
  rec.updatedAt = s.at;
  return rec;
}

/// A segment record as both formats store it, up to its grams.
void putRecordHead(std::string& out, const SegmentRecord& rec) {
  util::putU64(out, rec.id);
  util::putU8(out, static_cast<std::uint8_t>(rec.kind));
  util::putStr(out, rec.name);
  util::putStr(out, rec.document);
  util::putStr(out, rec.service);
  util::putF64(out, rec.threshold);
}

/// kSegmentObserved body: the record, then its (u32 hash, u32 pos) grams.
std::string observedBody(const SegmentRecord& rec) {
  std::string body;
  putRecordHead(body, rec);
  util::putU64(body, rec.createdAt);
  util::putU64(body, rec.updatedAt);
  util::putU64(body, rec.fingerprint.grams().size());
  for (const auto& g : rec.fingerprint.grams()) {
    util::putU32(body, g.hash);
    util::putU32(body, g.pos);
  }
  return body;
}

/// One WAL frame: u32 len | u32 masked CRC | u64 seq | u8 type | body.
std::string frame(std::uint64_t seq, const std::string& body,
                  std::uint8_t type = static_cast<std::uint8_t>(
                      WalRecordType::kSegmentObserved)) {
  std::string payload;
  util::putU64(payload, seq);
  util::putU8(payload, type);
  payload += body;
  std::string out;
  util::putU32(out, static_cast<std::uint32_t>(payload.size()));
  util::putU32(out, util::maskCrc32c(util::crc32c(payload)));
  return out + payload;
}

std::string walHeader(const char* magic = "BFWAL002") {
  std::string out = magic;
  util::putU64(out, 0);  // base sequence: first record is 1
  return out;
}

/// The paragraph associations `segments`' grams imply (first seen at the
/// segment's timestamp), sorted as exportState() writes them.
struct Row {
  text::Hash hash;
  SegmentId segment;
  util::Timestamp ts;
};
std::vector<Row> rowsOf(const std::vector<Segment>& segments) {
  std::vector<Row> rows;
  for (const Segment& s : segments) {
    for (const Gram& g : s.grams) rows.push_back({g.hash, s.id, s.at});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.ts < b.ts;
  });
  return rows;
}

/// BFSNAPP4 blob of `segments` and the associations their grams imply.
std::string v4Blob(const std::vector<Segment>& segments) {
  std::string blob = "BFSNAPP4";
  util::putU64(blob, segments.size());
  for (const Segment& s : segments) {
    const SegmentRecord rec = recordOf(s);
    putRecordHead(blob, rec);
    util::putU64(blob, s.at);
    util::putU64(blob, s.at);
    util::putU64(blob, s.grams.size());
    for (const Gram& g : s.grams) {
      util::putU32(blob, g.hash);
      util::putU32(blob, g.pos);
    }
  }
  const std::vector<Row> rows = rowsOf(segments);
  util::putU64(blob, rows.size());
  for (const Row& r : rows) {
    util::putU32(blob, r.hash);
    util::putU64(blob, r.segment);
    util::putU64(blob, r.ts);
  }
  util::putU64(blob, 0);  // document associations
  return blob;
}

/// The retired v3 body of the same state: a u64 tenant slot (0) per
/// segment, u64 hashes, and a lastSeen per association row.
std::string v3Body(const std::vector<Segment>& segments) {
  std::string body;
  util::putU64(body, segments.size());
  for (const Segment& s : segments) {
    putRecordHead(body, recordOf(s));
    util::putU64(body, 0);  // tenant slot
    util::putU64(body, s.at);
    util::putU64(body, s.at);
    util::putU64(body, s.grams.size());
    for (const Gram& g : s.grams) {
      util::putU64(body, g.hash);
      util::putU32(body, g.pos);
    }
  }
  const std::vector<Row> rows = rowsOf(segments);
  util::putU64(body, rows.size());
  for (const Row& r : rows) {
    util::putU64(body, r.hash);
    util::putU64(body, r.segment);
    util::putU64(body, r.ts);
    util::putU64(body, r.ts);  // lastSeen
  }
  util::putU64(body, 0);  // document associations
  return body;
}

class StateFormatTest : public ::testing::Test {
 protected:
  StateFormatTest()
      : path_("/tmp/bf_state_format_test_" +
              std::to_string(static_cast<long>(::getpid())) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".bfw") {}
  ~StateFormatTest() override { std::remove(path_.c_str()); }

  /// Replays `data` (a whole log file) into a fresh tracker; returns the
  /// replay outcome and the tracker's exported state.
  std::pair<WalReplayResult, std::string> replay(const std::string& data) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << data;
    util::LogicalClock clock;
    FlowTracker tracker(TrackerConfig{}, &clock);
    const WalReplayResult result = replayWalFile(tracker, path_, 1);
    return {result, exportState(tracker)};
  }

  std::string path_;
};

TEST_F(StateFormatTest, LiveWalWriterEmitsTheV2Layout) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.open(path_, 0, false).ok());
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  tracker.attachWal(&wal);
  tracker.observeSegment(SegmentKind::kParagraph, "a#p0", "a", "svc",
                         "a paragraph long enough to carry several grams");
  tracker.attachWal(nullptr);
  wal.close();

  const auto read = io::defaultVfs().readFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(),
            walHeader() + frame(1, observedBody(*tracker.segmentByName("a#p0"))));
}

TEST_F(StateFormatTest, WalReplayReachesTheSnapshotState) {
  const auto [result, state] =
      replay(walHeader() + frame(1, observedBody(recordOf(kFirst))) +
             frame(2, observedBody(recordOf(kSecond))));
  EXPECT_EQ(result.applied, 2u);
  EXPECT_FALSE(result.sawCorruption);
  // The replayed state is exactly what the matching v4 snapshot encodes.
  EXPECT_EQ(state, v4Blob({kFirst, kSecond}));
}

TEST_F(StateFormatTest, V4SnapshotImportsAndReexports) {
  const std::string blob = v4Blob({kFirst, kSecond});
  util::LogicalClock clock;
  FlowTracker imported(TrackerConfig{}, &clock);
  ASSERT_TRUE(importState(imported, blob).ok());
  EXPECT_EQ(imported.segmentDb().size(), 2u);
  EXPECT_EQ(exportState(imported), blob);
  EXPECT_EQ(*imported.hashDb().oldestSegmentWith(SegmentKind::kParagraph, 22),
            kFirst.id);
}

TEST_F(StateFormatTest, RetiredWalRecordTypesAreCorrupt) {
  // Types 2 (a restored association) and 5 (an eviction cutoff) are no
  // longer written. Replay stops at one like at any corrupt frame: the
  // recovered state is the prefix before it. So does a kSegmentObserved
  // body that ends in the retired tenant slot.
  const std::string good = frame(1, observedBody(recordOf(kFirst)));
  const std::string after = frame(3, observedBody(recordOf(kSecond)));
  std::string association;
  util::putU8(association, 0);    // kind
  util::putU64(association, 22);  // hash
  util::putU64(association, 2);   // segment
  util::putU64(association, 4);   // firstSeen
  std::string cutoff;
  util::putU64(cutoff, 100);
  std::string tenant = observedBody(recordOf(kSecond));
  util::putU64(tenant, 0);
  for (const std::string& bad :
       {frame(2, association, 2), frame(2, cutoff, 5), frame(2, tenant)}) {
    const auto [result, state] = replay(walHeader() + good + bad + after);
    EXPECT_EQ(result.applied, 1u);
    EXPECT_EQ(result.lastSequence, 1u);
    EXPECT_TRUE(result.sawCorruption);
    EXPECT_EQ(result.discardedBytes, bad.size() + after.size());
    EXPECT_EQ(state, v4Blob({kFirst}));
  }
}

TEST_F(StateFormatTest, Wal001LogIsDiscardedEntirely) {
  // A BFWAL001 log (u64 gram hashes and a trailing tenant slot) is not
  // read at all, even where its first frame would parse.
  const std::string data = walHeader("BFWAL001") +
                           frame(1, observedBody(recordOf(kFirst)));
  const auto [result, state] = replay(data);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_TRUE(result.sawCorruption);
  EXPECT_EQ(result.discardedBytes, data.size());
  EXPECT_EQ(state, v4Blob({}));
}

TEST_F(StateFormatTest, V3SnapshotIsRejectedAllOrNothing) {
  // A v3 snapshot fails under its own magics, and its body fails under a
  // v4 magic; the tracker stays empty either way.
  const std::string body = v3Body({kFirst, kSecond});
  std::string sequenced = "BFSNAPS3";
  util::putU64(sequenced, 7);
  sequenced += body;
  util::appendCrc32cTrailer(sequenced);
  for (const std::string& blob :
       {"BFSNAPP3" + body, sequenced, "BFSNAPP4" + body}) {
    util::LogicalClock clock;
    FlowTracker imported(TrackerConfig{}, &clock);
    EXPECT_FALSE(importState(imported, blob).ok());
    EXPECT_EQ(imported.segmentDb().size(), 0u);
    EXPECT_EQ(imported.hashDb().distinctHashCount(SegmentKind::kParagraph), 0u);
  }
}

}  // namespace
}  // namespace bf::flow
