// On-disk compatibility of the reserved tenant slot. The WAL's
// kSegmentObserved record ends in a u64 tenant field and v3 snapshot
// bodies carry one per segment. The tracker has a single namespace, so
// writers emit 0 there; readers accept 0 or (in the WAL) a record without
// the field, and reject any other value as corrupt. Records here are
// hand-encoded with util::put* so the tests pin the byte layout itself.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
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

/// kSegmentObserved body; `tenant` nullopt omits the trailing field (the
/// layout written before the field existed).
std::string observedBody(const SegmentRecord& rec,
                         std::optional<std::uint64_t> tenant) {
  std::string body;
  util::putU64(body, rec.id);
  util::putU8(body, static_cast<std::uint8_t>(rec.kind));
  util::putStr(body, rec.name);
  util::putStr(body, rec.document);
  util::putStr(body, rec.service);
  util::putF64(body, rec.threshold);
  util::putU64(body, rec.createdAt);
  util::putU64(body, rec.updatedAt);
  util::putU64(body, rec.fingerprint.grams().size());
  for (const auto& g : rec.fingerprint.grams()) {
    util::putU64(body, g.hash);
    util::putU32(body, g.pos);
  }
  if (tenant) util::putU64(body, *tenant);
  return body;
}

/// One WAL frame: u32 len | u32 masked CRC | u64 seq | u8 type | body.
std::string frame(std::uint64_t seq, const std::string& body) {
  std::string payload;
  util::putU64(payload, seq);
  util::putU8(payload,
              static_cast<std::uint8_t>(WalRecordType::kSegmentObserved));
  payload += body;
  std::string out;
  util::putU32(out, static_cast<std::uint32_t>(payload.size()));
  util::putU32(out, util::maskCrc32c(util::crc32c(payload)));
  return out + payload;
}

std::string walHeader() {
  std::string out = "BFWAL001";
  util::putU64(out, 0);  // base sequence: first record is 1
  return out;
}

/// BFSNAPP3 blob of `segments` with the given tenant slot per segment, and
/// the paragraph associations their grams imply (first-seen = lastSeen =
/// the segment's timestamp), sorted as exportState() writes them.
std::string v3Blob(const std::vector<Segment>& segments,
                   const std::vector<std::uint64_t>& tenants) {
  std::string blob = "BFSNAPP3";
  util::putU64(blob, segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    util::putU64(blob, s.id);
    util::putU8(blob, static_cast<std::uint8_t>(SegmentKind::kParagraph));
    util::putStr(blob, s.name);
    util::putStr(blob, s.name);
    util::putStr(blob, "svc");
    util::putF64(blob, 0.5);
    util::putU64(blob, tenants[i]);
    util::putU64(blob, s.at);
    util::putU64(blob, s.at);
    util::putU64(blob, s.grams.size());
    for (const Gram& g : s.grams) {
      util::putU64(blob, g.hash);
      util::putU32(blob, g.pos);
    }
  }
  struct Assoc {
    std::uint64_t hash;
    SegmentId segment;
    util::Timestamp ts;
  };
  std::vector<Assoc> assocs;
  for (const Segment& s : segments) {
    for (const Gram& g : s.grams) assocs.push_back({g.hash, s.id, s.at});
  }
  std::sort(assocs.begin(), assocs.end(), [](const Assoc& a, const Assoc& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.ts < b.ts;
  });
  util::putU64(blob, assocs.size());
  for (const Assoc& a : assocs) {
    util::putU64(blob, a.hash);
    util::putU64(blob, a.segment);
    util::putU64(blob, a.ts);
    util::putU64(blob, a.ts);  // lastSeen
  }
  util::putU64(blob, 0);  // document associations
  return blob;
}

class TenantSlotCompatTest : public ::testing::Test {
 protected:
  TenantSlotCompatTest()
      : path_("/tmp/bf_tenant_slot_test_" +
              std::to_string(static_cast<long>(::getpid())) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".bfw") {}
  ~TenantSlotCompatTest() override { std::remove(path_.c_str()); }

  /// Replays `frames` (after a WAL header) into a fresh tracker; returns
  /// the replay outcome and the tracker's exported state.
  std::pair<WalReplayResult, std::string> replay(const std::string& frames) {
    const std::string data = walHeader() + frames;
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << data;
    util::LogicalClock clock;
    FlowTracker tracker(TrackerConfig{}, &clock);
    const WalReplayResult result = replayWalFile(tracker, path_, 1);
    return {result, exportState(tracker)};
  }

  std::string path_;
};

TEST_F(TenantSlotCompatTest, WalRecordWithAndWithoutZeroTenantReplayAlike) {
  const auto [withSlot, withState] =
      replay(frame(1, observedBody(recordOf(kFirst), 0)) +
             frame(2, observedBody(recordOf(kSecond), 0)));
  const auto [without, withoutState] =
      replay(frame(1, observedBody(recordOf(kFirst), std::nullopt)) +
             frame(2, observedBody(recordOf(kSecond), std::nullopt)));
  EXPECT_EQ(withSlot.applied, 2u);
  EXPECT_FALSE(withSlot.sawCorruption);
  EXPECT_EQ(without.applied, 2u);
  EXPECT_FALSE(without.sawCorruption);
  EXPECT_EQ(withState, withoutState);
  // The replayed state is exactly what the matching v3 snapshot encodes.
  EXPECT_EQ(withState, v3Blob({kFirst, kSecond}, {0, 0}));
}

TEST_F(TenantSlotCompatTest, WalRecordWithNonzeroTenantIsCorrupt) {
  const std::string good = frame(1, observedBody(recordOf(kFirst), 0));
  const std::string bad = frame(2, observedBody(recordOf(kSecond), 7));
  const std::string after = frame(3, observedBody(recordOf(kSecond), 0));
  const auto [result, state] = replay(good + bad + after);
  // Replay stops at the bad frame, like any other corrupt frame: the
  // recovered state is the prefix before it.
  EXPECT_EQ(result.applied, 1u);
  EXPECT_EQ(result.lastSequence, 1u);
  EXPECT_TRUE(result.sawCorruption);
  EXPECT_EQ(result.discardedBytes, bad.size() + after.size());
  EXPECT_EQ(state, v3Blob({kFirst}, {0}));
}

TEST_F(TenantSlotCompatTest, LiveWalWriterEmitsZeroTenantSlot) {
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
            walHeader() +
                frame(1, observedBody(*tracker.segmentByName("a#p0"), 0)));
}

TEST_F(TenantSlotCompatTest, V3SnapshotWithZeroTenantImportsAndReexports) {
  const std::string blob = v3Blob({kFirst, kSecond}, {0, 0});
  util::LogicalClock clock;
  FlowTracker imported(TrackerConfig{}, &clock);
  ASSERT_TRUE(importState(imported, blob).ok());
  EXPECT_EQ(imported.segmentDb().size(), 2u);
  // Export writes the same zero slot back: the bytes round-trip exactly.
  EXPECT_EQ(exportState(imported), blob);

  // Same state as the WAL path reaching it.
  const auto [result, walState] =
      replay(frame(1, observedBody(recordOf(kFirst), std::nullopt)) +
             frame(2, observedBody(recordOf(kSecond), std::nullopt)));
  EXPECT_EQ(result.applied, 2u);
  EXPECT_EQ(walState, exportState(imported));
}

TEST_F(TenantSlotCompatTest, V3SnapshotWithNonzeroTenantFailsAllOrNothing) {
  util::LogicalClock clock;
  FlowTracker imported(TrackerConfig{}, &clock);
  const auto result =
      importState(imported, v3Blob({kFirst, kSecond}, {0, 5}));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorMessage().find("tenant"), std::string::npos);
  // The valid first segment was not applied either.
  EXPECT_EQ(imported.segmentDb().size(), 0u);
  EXPECT_EQ(imported.hashDb().distinctHashCount(), 0u);
}

}  // namespace
}  // namespace bf::flow
