// Tests for HashDb ("DBhash", paper S4.3).
//
// BF_HASHDB_MODEL_SEED and BF_HASHDB_MODEL_TRIALS widen the seeded sweep of
// HashDbModel.RandomSessionsMatchReferenceModel; the defaults keep ctest
// quick.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "flow/hash_db.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

using AssociationRowValue = std::pair<SegmentId, util::Timestamp>;

constexpr SegmentKind kPar = SegmentKind::kParagraph;
constexpr SegmentKind kDoc = SegmentKind::kDocument;
constexpr SegmentKind kKinds[] = {kPar, kDoc};

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Every live association of kind `kind` in `db` as (hash, segment,
/// firstSeen), in export order.
using AssociationRow = std::tuple<text::Hash, SegmentId, util::Timestamp>;

std::vector<AssociationRow> exportOrder(const HashDb& db,
                                        SegmentKind kind = kPar) {
  std::vector<AssociationRow> rows;
  db.forEachAssociation(
      kind, [&](text::Hash h, SegmentId s, util::Timestamp f) {
        rows.emplace_back(h, s, f);
      });
  return rows;
}

/// What re-recording held associations must leave as it was: the bytes,
/// the head shapes and every association of both kinds.
struct StoreShape {
  std::size_t memoryBytes;
  std::size_t spilled;
  std::array<std::size_t, 2> associations;
  std::array<std::vector<AssociationRow>, 2> rows;

  explicit StoreShape(const HashDb& db)
      : memoryBytes(db.memoryBytes()),
        spilled(db.spilledHashCount()),
        associations{db.associationCount(kPar), db.associationCount(kDoc)},
        rows{exportOrder(db, kPar), exportOrder(db, kDoc)} {}
  bool operator==(const StoreShape&) const = default;
};

TEST(HashDb, OldestSegmentIsFirstObserver) {
  HashDb db;
  db.recordObservation(kPar, 42, 1, 10);
  db.recordObservation(kPar, 42, 2, 20);
  ASSERT_TRUE(db.oldestSegmentWith(kPar, 42).has_value());
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 42), 1u);
}

TEST(HashDb, UnknownHash) {
  HashDb db;
  EXPECT_FALSE(db.oldestSegmentWith(kPar, 99).has_value());
  EXPECT_TRUE(db.segmentsWith(kPar, 99).empty());
}

TEST(HashDb, ReobservationKeepsOriginalTimestamp) {
  HashDb db;
  db.recordObservation(kPar, 42, 1, 10);
  db.recordObservation(kPar, 42, 1, 50);  // same (hash, segment) later
  ASSERT_TRUE(db.firstSeen(kPar, 42, 1).has_value());
  EXPECT_EQ(*db.firstSeen(kPar, 42, 1), 10u);
}

TEST(HashDb, ReobservationLeavesTheStoreUnchanged) {
  // Re-recording a held (hash, segment) is a no-op: a compact slot stays
  // compact and a history keeps its entries, whatever the new stamp.
  HashDb db;
  const std::vector<text::Hash> own = {1, 2, 3, 4, 5};
  const std::vector<text::Hash> shared = {3, 4};
  db.recordFingerprint(kPar, own, 1, 10);
  db.recordFingerprint(kPar, shared, 2, 20);
  ASSERT_EQ(db.spilledHashCount(), 2u);
  const StoreShape before(db);
  db.recordFingerprint(kPar, own, 1, 70);
  db.recordFingerprint(kPar, shared, 2, 80);
  db.recordObservation(kPar, 1, 1, 90);
  db.recordObservation(kPar, 4, 2, 5);  // an older stamp moves nothing either
  db.recordObservation(kPar, 4, 1, std::uint64_t{1} << 40);
  EXPECT_TRUE(StoreShape(db) == before);
  EXPECT_EQ(*db.firstSeen(kPar, 1, 1), 10u);
  EXPECT_EQ(*db.firstSeen(kPar, 4, 2), 20u);
}

TEST(HashDb, SegmentsWithOrderedOldestFirst) {
  HashDb db;
  db.recordObservation(kPar, 7, 3, 30);
  db.recordObservation(kPar, 7, 1, 40);
  db.recordObservation(kPar, 7, 2, 50);
  const auto segs = db.segmentsWith(kPar, 7);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], 3u);
  EXPECT_EQ(segs[1], 1u);
  EXPECT_EQ(segs[2], 2u);
}

TEST(HashDb, OutOfOrderTimestampsSortedIn) {
  HashDb db;
  db.recordObservation(kPar, 7, 1, 100);
  db.recordObservation(kPar, 7, 2, 50);  // older than existing entry
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 7), 2u);
}

TEST(HashDb, RemovedSegmentSkippedByLookups) {
  HashDb db;
  db.recordObservation(kPar, 7, 1, 10);
  db.recordObservation(kPar, 7, 2, 20);
  db.removeSegment(kPar, 1);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 7), 2u);
  EXPECT_EQ(db.segmentsWith(kPar, 7).size(), 1u);
  EXPECT_FALSE(db.firstSeen(kPar, 7, 1).has_value());
}

TEST(HashDb, RemovalPromotesNextOldest) {
  // The authoritative source changes when the original is deleted —
  // provenance falls to the next-oldest copy.
  HashDb db;
  db.recordObservation(kPar, 7, 1, 10);
  db.recordObservation(kPar, 7, 2, 20);
  db.recordObservation(kPar, 7, 3, 30);
  db.removeSegment(kPar, 1);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 7), 2u);
  db.removeSegment(kPar, 2);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 7), 3u);
  db.removeSegment(kPar, 3);
  EXPECT_FALSE(db.oldestSegmentWith(kPar, 7).has_value());
}

TEST(HashDb, RemovalGenerationBumps) {
  HashDb db;
  const auto g0 = db.removalGeneration(kPar);
  db.removeSegment(kPar, 5);
  EXPECT_GT(db.removalGeneration(kPar), g0);
}

TEST(HashDb, RemovalGenerationIsPerKind) {
  // Removing a paragraph leaves document answers cached against the
  // document generation valid, and the other way round.
  HashDb db;
  db.removeSegment(kPar, 5);
  EXPECT_EQ(db.removalGeneration(kPar), 1u);
  EXPECT_EQ(db.removalGeneration(kDoc), 0u);
  db.removeSegment(kDoc, 6);
  db.removeSegment(kDoc, 7);
  EXPECT_EQ(db.removalGeneration(kPar), 1u);
  EXPECT_EQ(db.removalGeneration(kDoc), 2u);
}

TEST(HashDb, KindsKeepTheirOwnHeadsInOneSlot) {
  // A document recorded before its paragraph owns the hash as a document;
  // the paragraph still owns it as a paragraph. One slot holds both.
  HashDb db;
  db.recordObservation(kDoc, 42, 1, 10);
  db.recordObservation(kPar, 42, 2, 20);
  db.recordObservation(kPar, 43, 2, 20);
  EXPECT_EQ(*db.oldestSegmentWith(kDoc, 42), 1u);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 42), 2u);
  EXPECT_FALSE(db.oldestSegmentWith(kDoc, 43).has_value());
  EXPECT_FALSE(db.firstSeen(kDoc, 42, 2).has_value());
  EXPECT_EQ(*db.firstSeen(kPar, 42, 2), 20u);
  EXPECT_EQ(db.distinctHashCount(kPar), 2u);
  EXPECT_EQ(db.distinctHashCount(kDoc), 1u);
  EXPECT_EQ(db.associationCount(kPar), 2u);
  EXPECT_EQ(db.associationCount(kDoc), 1u);
  EXPECT_EQ(db.spilledHashCount(), 0u);  // every head is compact

  HashDb onlyParagraphs;
  onlyParagraphs.recordObservation(kPar, 42, 2, 20);
  onlyParagraphs.recordObservation(kPar, 43, 2, 20);
  EXPECT_EQ(db.memoryBytes(), onlyParagraphs.memoryBytes());

  // Removal kills the segment in the kind it holds; the other kind's
  // owner keeps the hash, and compaction keeps the slot for it.
  db.setDeadCompactionThreshold(0);
  db.removeSegment(kPar, 2);
  EXPECT_EQ(db.distinctHashCount(kPar), 0u);
  EXPECT_EQ(db.distinctHashCount(kDoc), 1u);
  EXPECT_EQ(*db.oldestSegmentWith(kDoc, 42), 1u);
  EXPECT_FALSE(db.oldestSegmentWith(kPar, 42).has_value());
}

TEST(HashDb, DistinctHashCount) {
  HashDb db;
  db.recordObservation(kPar, 1, 1, 1);
  db.recordObservation(kPar, 1, 2, 2);
  db.recordObservation(kPar, 2, 1, 3);
  EXPECT_EQ(db.distinctHashCount(kPar), 2u);
}

TEST(HashDb, CompactDeadShrinksStore) {
  // The tombstone fix: physically removing a dead segment's associations
  // must shrink the store and clear the dead set, so lookups stop paying
  // the isDead probe for segments removed long ago.
  HashDb db;
  for (text::Hash h = 0; h < 100; ++h) {
    db.recordObservation(kPar, h, 1, 10);
    db.recordObservation(kPar, h, 2, 20);
  }
  ASSERT_EQ(db.associationCount(kPar), 200u);
  db.setDeadCompactionThreshold(1000);  // keep removal lazy for this test
  db.removeSegment(kPar, 1);
  EXPECT_EQ(db.deadSegmentCount(), 1u);
  EXPECT_EQ(db.associationCount(kPar), 200u);  // lazy: nothing purged yet

  const std::size_t dropped = db.compactDead();
  EXPECT_EQ(dropped, 100u);
  EXPECT_EQ(db.associationCount(kPar), 100u);  // store physically shrank
  EXPECT_EQ(db.deadSegmentCount(), 0u);    // tombstones cleared
  for (text::Hash h = 0; h < 100; ++h) {
    EXPECT_EQ(*db.oldestSegmentWith(kPar, h), 2u);
  }
  // Compacting an already-clean store is a no-op.
  EXPECT_EQ(db.compactDead(), 0u);
}

TEST(HashDb, CompactionAllocatesTheTableInsertsWouldGrow) {
  // The rebuild allocates its table once, at the size inserting the
  // surviving hashes one by one reaches (counts either side of each
  // doubling, and none at all): memoryBytes() equals a store that only
  // ever held the survivors.
  for (const text::Hash survivors : {0u, 1u, 11u, 12u, 22u, 23u, 45u, 300u}) {
    HashDb db;
    HashDb fresh;
    db.setDeadCompactionThreshold(1000);
    for (text::Hash h = 0; h < survivors; ++h) {
      db.recordObservation(kPar, h, 1, 10);
      fresh.recordObservation(kPar, h, 1, 10);
    }
    for (text::Hash h = 0; h < 500; ++h) db.recordObservation(kPar, 1000 + h, 2, 20);
    db.removeSegment(kPar, 2);
    EXPECT_EQ(db.compactDead(), 500u);
    EXPECT_EQ(db.distinctHashCount(kPar), survivors);
    EXPECT_EQ(db.memoryBytes(), fresh.memoryBytes()) << survivors;
    for (text::Hash h = 0; h < survivors; ++h) {
      EXPECT_EQ(*db.oldestSegmentWith(kPar, h), 1u);
    }
    db.recordObservation(kPar, 7777, 3, 30);  // the rebuilt table takes inserts
    EXPECT_EQ(*db.oldestSegmentWith(kPar, 7777), 3u);
  }
}

TEST(HashDb, RemovalAutoCompactsPastThreshold) {
  HashDb db;
  db.setDeadCompactionThreshold(2);
  for (text::Hash h = 0; h < 10; ++h) {
    db.recordObservation(kPar, h, 1, 10);
    db.recordObservation(kPar, h, 2, 20);
    db.recordObservation(kPar, h, 3, 30);
    db.recordObservation(kPar, h + 100, 4, 40);
  }
  db.removeSegment(kPar, 1);
  db.removeSegment(kPar, 2);
  EXPECT_EQ(db.deadSegmentCount(), 2u);    // at the threshold: still lazy
  EXPECT_EQ(db.associationCount(kPar), 40u);
  db.removeSegment(kPar, 3);                     // exceeds it: compacts
  EXPECT_EQ(db.deadSegmentCount(), 0u);
  EXPECT_EQ(db.associationCount(kPar), 10u);   // only segment 4's remain
  EXPECT_EQ(db.distinctHashCount(kPar), 10u);  // hashes 0..9 fully gone
  for (text::Hash h = 0; h < 10; ++h) {
    EXPECT_FALSE(db.oldestSegmentWith(kPar, h).has_value());
    EXPECT_EQ(*db.oldestSegmentWith(kPar, h + 100), 4u);
  }
}

TEST(HashDb, ZeroThresholdCompactsOnEveryRemoval) {
  HashDb db;
  db.setDeadCompactionThreshold(0);
  db.recordObservation(kPar, 1, 1, 10);
  db.recordObservation(kPar, 1, 2, 20);
  db.removeSegment(kPar, 1);
  EXPECT_EQ(db.deadSegmentCount(), 0u);
  EXPECT_EQ(db.associationCount(kPar), 1u);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 1), 2u);
}

TEST(HashDb, ObservationAfterCompactionRebuildsHistory) {
  // A compacted-away segment can be re-observed later (e.g. restored from
  // a snapshot or re-created under the same id) without tombstone residue.
  HashDb db;
  db.setDeadCompactionThreshold(0);
  db.recordObservation(kPar, 1, 1, 10);
  db.removeSegment(kPar, 1);
  ASSERT_FALSE(db.oldestSegmentWith(kPar, 1).has_value());
  db.recordObservation(kPar, 1, 1, 99);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 1), 1u);
  EXPECT_EQ(*db.firstSeen(kPar, 1, 1), 99u);  // fresh observation, fresh time
}

TEST(HashDb, ManyHashesSurviveRehashing) {
  // Growth past several load-factor doublings must keep every history
  // intact (the rehash moves slots; history indices must stay valid).
  HashDb db;
  for (text::Hash h = 0; h < 5000; ++h) {
    db.recordObservation(kPar, h, (h % 7) + 1, h);
    if (h % 3 == 0) db.recordObservation(kPar, h, (h % 7) + 2, h + 1);
  }
  EXPECT_EQ(db.distinctHashCount(kPar), 5000u);
  for (text::Hash h = 0; h < 5000; ++h) {
    ASSERT_TRUE(db.oldestSegmentWith(kPar, h).has_value()) << h;
    EXPECT_EQ(*db.oldestSegmentWith(kPar, h), (h % 7) + 1) << h;
    EXPECT_EQ(db.segmentsWith(kPar, h).size(), h % 3 == 0 ? 2u : 1u) << h;
  }
}

TEST(HashDb, WideIdsAndStampsStayExact) {
  // Segment ids and stamps past 32 bits take the spilled slot shape; the
  // answers must not depend on which shape holds them.
  constexpr SegmentId kWide = (SegmentId{1} << 32) + 7;
  constexpr util::Timestamp kLate = util::Timestamp{1} << 40;
  HashDb db;
  db.recordObservation(kPar, 1, kWide, 30);
  db.recordObservation(kPar, 2, 0xffffffffu, 30);
  db.recordObservation(kPar, 3, 4, kLate);
  db.recordObservation(kPar, 4, 5, 40);
  db.recordObservation(kPar, 4, kWide, 35);  // wide id becomes the oldest
  db.recordObservation(kPar, 5, 6, (util::Timestamp{1} << 31) - 1);
  db.recordObservation(kPar, 6, 6, util::Timestamp{1} << 31);
  db.recordObservation(kPar, 7, 0xfffffffeu, 30);
  EXPECT_EQ(*db.firstSeen(kPar, 5, 6), (util::Timestamp{1} << 31) - 1);
  EXPECT_EQ(*db.firstSeen(kPar, 6, 6), util::Timestamp{1} << 31);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 7), 0xfffffffeu);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 1), kWide);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 2), 0xffffffffu);
  EXPECT_EQ(*db.firstSeen(kPar, 3, 4), kLate);
  EXPECT_EQ(db.segmentsWith(kPar, 4), (std::vector<SegmentId>{kWide, 5}));
  db.removeSegment(kPar, kWide);
  EXPECT_FALSE(db.oldestSegmentWith(kPar, 1).has_value());
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 4), 5u);
}

TEST(HashDb, HistoryEntriesEscapeWideIdsAndStampsAtTheirBoundaries) {
  // A history entry holds a segment id up to 2^32 - 2 and a firstSeen up to
  // 2^32 - 1 inline; 2^32 - 1 as an id and 2^32 as a stamp are escaped.
  // Both shapes must answer identically and ignore re-observations.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  HashDb db;
  db.setDeadCompactionThreshold(1000);
  db.recordObservation(kPar, 1, k32 - 2, 10);      // narrow
  db.recordObservation(kPar, 1, k32 - 1, 11);      // escaped id
  db.recordObservation(kPar, 1, k32 + 7, 12);      // escaped id
  db.recordObservation(kPar, 2, 5, 20);
  db.recordObservation(kPar, 2, 6, k32 - 1);       // narrow stamp
  db.recordObservation(kPar, 2, 7, k32);           // escaped stamp
  db.recordObservation(kPar, 2, k32 + 7, k32 + 3); // both escaped
  EXPECT_EQ(db.segmentsWith(kPar, 1),
            (std::vector<SegmentId>{k32 - 2, k32 - 1, k32 + 7}));
  EXPECT_EQ(db.segmentsWith(kPar, 2), (std::vector<SegmentId>{5, 6, 7, k32 + 7}));
  EXPECT_EQ(*db.firstSeen(kPar, 2, 6), k32 - 1);
  EXPECT_EQ(*db.firstSeen(kPar, 2, 7), k32);
  EXPECT_EQ(*db.firstSeen(kPar, 2, k32 + 7), k32 + 3);

  // Re-observations of escaped entries add no escape and move no stamp.
  const StoreShape before(db);
  db.recordObservation(kPar, 1, k32 + 7, 50);
  db.recordObservation(kPar, 1, k32 - 1, 60);
  db.recordObservation(kPar, 2, 7, k32 + 100);
  db.recordObservation(kPar, 2, k32 + 7, k32 + 90);
  EXPECT_TRUE(StoreShape(db) == before);
  EXPECT_EQ(*db.firstSeen(kPar, 1, k32 + 7), 12u);
  EXPECT_EQ(*db.firstSeen(kPar, 2, 7), k32);

  // An escaped entry inserted out of order becomes the oldest owner.
  db.recordObservation(kPar, 1, k32 + 9, 5);
  EXPECT_EQ(*db.oldestSegmentWith(kPar, 1), k32 + 9);
  EXPECT_EQ(*db.firstSeen(kPar, 1, k32 + 9), 5u);

  // A rebuild re-escapes the survivors into its fresh pool.
  db.removeSegment(kPar, k32 - 2);
  db.removeSegment(kPar, 5);
  EXPECT_EQ(db.compactDead(), 2u);
  std::vector<AssociationRow> rows = exportOrder(db);
  std::sort(rows.begin(), rows.end());
  std::vector<AssociationRow> want = {
      {1, k32 + 9, 5},      {1, k32 - 1, 11},  {1, k32 + 7, 12},
      {2, 6, k32 - 1},      {2, 7, k32},       {2, k32 + 7, k32 + 3}};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(rows, want);
  EXPECT_EQ(db.segmentsWith(kPar, 1),
            (std::vector<SegmentId>{k32 + 9, k32 - 1, k32 + 7}));
}

// ---- A naive reference model of the documented rules ----------------------

/// DBhash as its documentation states it, with no layout at all: per kind
/// and hash, every association in firstSeen order (equal stamps in arrival
/// order). One dead set serves both kinds; the removal generation is per
/// kind.
class ReferenceHashDb {
 public:
  using Association = HashDb::Association;

  explicit ReferenceHashDb(std::size_t threshold) : threshold_(threshold) {}

  void record(SegmentKind kind, text::Hash hash, SegmentId segment,
              util::Timestamp ts) {
    // A held triple stays as it is.
    if (!held_.emplace(kind, hash, segment).second) return;
    std::vector<Association>& history = byKey_[{kind, hash}];
    // After the last association first seen at or before ts (the history
    // is sorted, and the common append ends the search at once).
    const auto last = std::find_if(
        history.rbegin(), history.rend(),
        [&](const Association& a) { return a.firstSeen <= ts; });
    history.insert(last.base(), Association{segment, ts});
  }

  /// Every hash `segment` holds an association of kind `kind` with, dead
  /// or alive.
  [[nodiscard]] std::vector<text::Hash> heldBy(SegmentKind kind,
                                               SegmentId segment) const {
    std::vector<text::Hash> out;
    for (const auto& [k, hash, s] : held_) {
      if (k == kind && s == segment) out.push_back(hash);
    }
    return out;
  }

  void remove(SegmentKind kind, SegmentId segment) {
    dead_.insert(segment);
    ++generation_[static_cast<std::size_t>(kind)];
    if (dead_.size() > threshold_) compact();
  }

  std::size_t compact() {
    if (dead_.empty()) return 0;
    std::size_t dropped = 0;
    for (auto it = byKey_.begin(); it != byKey_.end();) {
      const auto [kind, hash] = it->first;
      dropped += std::erase_if(it->second, [&](const Association& a) {
        const bool drop = dead(a.segment);
        if (drop) held_.erase({kind, hash, a.segment});
        return drop;
      });
      it = it->second.empty() ? byKey_.erase(it) : std::next(it);
    }
    dead_.clear();
    return dropped;
  }

  /// Live associations of kind `kind` per hash, oldest first.
  [[nodiscard]] std::map<text::Hash, std::vector<AssociationRowValue>>
  liveHistories(SegmentKind kind) const {
    std::map<text::Hash, std::vector<AssociationRowValue>> out;
    for (const auto& [key, history] : byKey_) {
      if (key.first != kind) continue;
      for (const Association& a : history) {
        if (!dead(a.segment)) {
          out[key.second].emplace_back(a.segment, a.firstSeen);
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::optional<SegmentId> oldest(SegmentKind kind,
                                                text::Hash hash) const {
    const auto segments = segmentsWith(kind, hash);
    if (segments.empty()) return std::nullopt;
    return segments.front();
  }

  [[nodiscard]] std::vector<SegmentId> segmentsWith(SegmentKind kind,
                                                    text::Hash hash) const {
    std::vector<SegmentId> out;
    if (const auto it = byKey_.find({kind, hash}); it != byKey_.end()) {
      for (const Association& a : it->second) {
        if (!dead(a.segment)) out.push_back(a.segment);
      }
    }
    return out;
  }

  [[nodiscard]] std::optional<Association> find(SegmentKind kind,
                                                text::Hash hash,
                                                SegmentId segment) const {
    const auto it = byKey_.find({kind, hash});
    if (dead(segment) || it == byKey_.end()) return std::nullopt;
    for (const Association& a : it->second) {
      if (a.segment == segment) return a;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t distinctHashes(SegmentKind kind) const {
    return static_cast<std::size_t>(
        std::count_if(byKey_.begin(), byKey_.end(),
                      [&](const auto& e) { return e.first.first == kind; }));
  }
  /// Hashes with an association of either kind: the slots a table holds.
  [[nodiscard]] std::size_t slots() const {
    std::set<text::Hash> hashes;
    for (const auto& [key, history] : byKey_) hashes.insert(key.second);
    return hashes.size();
  }
  [[nodiscard]] std::size_t associations(SegmentKind kind) const {
    std::size_t n = 0;
    for (const auto& [key, history] : byKey_) {
      if (key.first == kind) n += history.size();
    }
    return n;
  }
  [[nodiscard]] std::size_t deadCount() const { return dead_.size(); }
  [[nodiscard]] std::uint64_t generation(SegmentKind kind) const {
    return generation_[static_cast<std::size_t>(kind)];
  }

 private:
  [[nodiscard]] bool dead(SegmentId s) const { return dead_.count(s) != 0; }

  std::map<std::pair<SegmentKind, text::Hash>, std::vector<Association>>
      byKey_;
  std::set<std::tuple<SegmentKind, text::Hash, SegmentId>> held_;  // byKey_
  std::set<SegmentId> dead_;
  std::size_t threshold_;
  std::array<std::uint64_t, 2> generation_{};
};

void expectMatchesModel(const HashDb& db, const ReferenceHashDb& model,
                        const std::vector<text::Hash>& probes,
                        const std::vector<SegmentId>& segments) {
  EXPECT_EQ(db.deadSegmentCount(), model.deadCount());
  for (const SegmentKind kind : kKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    std::map<text::Hash, std::vector<AssociationRowValue>> exported;
    db.forEachAssociation(
        kind, [&](text::Hash h, SegmentId s, util::Timestamp f) {
          exported[h].emplace_back(s, f);
        });
    ASSERT_EQ(exported, model.liveHistories(kind));
    EXPECT_EQ(db.distinctHashCount(kind), model.distinctHashes(kind));
    EXPECT_EQ(db.associationCount(kind), model.associations(kind));
    EXPECT_EQ(db.removalGeneration(kind), model.generation(kind));
    std::vector<std::pair<SegmentId, text::Hash>> owners;
    db.oldestOwners(kind, probes, owners);
    std::vector<std::pair<SegmentId, text::Hash>> wantOwners;
    for (text::Hash h : probes) {
      ASSERT_EQ(db.oldestSegmentWith(kind, h), model.oldest(kind, h)) << h;
      ASSERT_EQ(db.segmentsWith(kind, h), model.segmentsWith(kind, h)) << h;
      if (const auto owner = model.oldest(kind, h)) {
        wantOwners.emplace_back(*owner, h);
      }
      for (SegmentId s : segments) {
        const auto want = model.find(kind, h, s);
        ASSERT_EQ(db.firstSeen(kind, h, s),
                  want ? std::optional(want->firstSeen) : std::nullopt)
            << h << " " << s;
      }
    }
    EXPECT_EQ(owners, wantOwners);
  }
}

TEST(HashDbModel, RandomSessionsMatchReferenceModel) {
  // Seeded sessions over ids and stamps on both sides of every 32-bit
  // boundary the slot layout has: ids up to and past 2^32 - 1, stamps past
  // 2^31 and 2^32, out-of-order restores, removals of either kind on both
  // sides of the compaction threshold, and re-observations of held
  // associations, which must leave the bytes, the head shapes and every
  // association as they were. Paragraph and document segments (each id
  // has one kind, as in a tracker) record the same hashes, so most slots
  // hold both heads, with different owners and stamps.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  const std::uint64_t firstSeed = envU64("BF_HASHDB_MODEL_SEED", 1);
  const std::uint64_t trials = envU64("BF_HASHDB_MODEL_TRIALS", 40);
  for (std::uint64_t seed = firstSeed; seed < firstSeed + trials; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const std::size_t threshold = rng.uniform(0, 5);
    HashDb db;
    db.setDeadCompactionThreshold(threshold);
    ReferenceHashDb model(threshold);
    // Kinds alternate, so both kinds have ids on both sides of 2^32.
    std::vector<SegmentId> segments = {1,       2,       3,       17,
                                       k32 - 2, k32 - 1, k32,     k32 + 9,
                                       SegmentId{1} << 40};
    const auto kindOf = [&](std::size_t i) { return kKinds[i % 2]; };
    std::vector<text::Hash> pool(300);
    for (text::Hash& h : pool) h = static_cast<text::Hash>(rng.next());
    const util::Timestamp starts[] = {100, (util::Timestamp{1} << 31) - 40,
                                      k32 - 40, util::Timestamp{1} << 40};
    util::Timestamp clock = starts[rng.uniform(0, 3)];
    for (int step = 0; step < 200; ++step) {
      const double roll = rng.uniform01();
      const std::size_t pick = rng.uniform(0, segments.size() - 1);
      const SegmentId s = segments[pick];
      const SegmentKind kind = kindOf(pick);
      if (roll < 0.07) {
        db.removeSegment(kind, s);
        model.remove(kind, s);
      } else if (roll < 0.09) {
        ASSERT_EQ(db.compactDead(), model.compact());
      } else if (roll < 0.14) {
        clock += rng.chance(0.5) ? k32 : rng.uniform(k32, 4 * k32);
      } else if (roll < 0.27) {
        // Restore path: one association, possibly older than what it
        // joins.
        const text::Hash h = rng.chance(0.8)
                                 ? rng.pick(pool)
                                 : static_cast<text::Hash>(rng.next());
        const util::Timestamp f = clock - rng.uniform(0, 80);
        db.recordObservation(kind, h, s, f);
        model.record(kind, h, s, f);
      } else if (roll < 0.35) {
        // Re-observation: everything a segment holds, shuffled, again at a
        // later stamp (one at a time or as a batch).
        std::vector<text::Hash> held = model.heldBy(kind, s);
        for (std::size_t i = held.size(); i > 1; --i) {
          std::swap(held[i - 1], held[rng.uniform(0, i - 1)]);
        }
        const StoreShape before(db);
        const util::Timestamp ts = clock + rng.uniform(1, 2 * k32);
        if (rng.chance(0.5)) {
          db.recordFingerprint(kind, held, s, ts);
        } else {
          for (text::Hash h : held) db.recordObservation(kind, h, s, ts);
        }
        for (text::Hash h : held) model.record(kind, h, s, ts);
        ASSERT_TRUE(StoreShape(db) == before) << held.size();
      } else {
        std::vector<text::Hash> hashes;
        const std::size_t n = rng.uniform(0, 50);
        for (std::size_t i = 0; i < n; ++i) {
          hashes.push_back(rng.chance(0.75)
                               ? rng.pick(pool)
                               : static_cast<text::Hash>(rng.next()));
        }
        const util::Timestamp ts =
            rng.chance(0.7) ? ++clock : clock - rng.uniform(0, 40);
        db.recordFingerprint(kind, hashes, s, ts);
        for (text::Hash h : hashes) model.record(kind, h, s, ts);
      }
      if (step % 25 == 24) {
        std::vector<text::Hash> probes(pool.begin(), pool.begin() + 60);
        probes.push_back(static_cast<text::Hash>(rng.next()));  // never stored
        expectMatchesModel(db, model, probes, segments);
      }
    }
    expectMatchesModel(db, model, pool, segments);
  }
}

TEST(HashDbModel, HistoryLongerThanOnePoolBlock) {
  // One hash held by more than 65,536 segments: its run outgrows a 512 KiB
  // pool block and moves to one allocation behind several block-table
  // entries. Out-of-order stamps insert into the middle of it, and a
  // compaction packs it into a fresh pool.
  constexpr SegmentId kSegments = 65536 + 300;
  HashDb db;
  ReferenceHashDb model(HashDb::kDefaultDeadCompactionThreshold);
  util::Timestamp clock = 100;
  for (SegmentId s = 1; s <= kSegments; ++s) {
    std::vector<text::Hash> hashes = {7};
    if (s % 3 == 0) hashes.push_back(8);
    const util::Timestamp ts = s % 1000 == 0 ? clock - 500 : ++clock;
    db.recordFingerprint(kPar, hashes, s, ts);
    for (text::Hash h : hashes) model.record(kPar, h, s, ts);
  }
  EXPECT_GE(db.poolBlockCount(), 2u);
  const std::vector<SegmentId> sample = {1,     2,         999,
                                         1000,  32768,     65535,
                                         65536, 65537,     kSegments - 1,
                                         kSegments, kSegments + 1};
  for (SegmentId s : {SegmentId{1}, SegmentId{40000}, kSegments}) {
    db.recordObservation(kPar, 7, s, clock + s);
    model.record(kPar, 7, s, clock + s);
  }
  expectMatchesModel(db, model, {7, 8, 9}, sample);
  for (SegmentId s : {SegmentId{1}, SegmentId{2}, SegmentId{1000}}) {
    db.removeSegment(kPar, s);
    model.remove(kPar, s);
  }
  ASSERT_EQ(db.compactDead(), model.compact());
  expectMatchesModel(db, model, {7, 8, 9}, sample);
}

TEST(HashDbModel, ChurnReusesPoolSpace) {
  // Groups of hashes grow one after another through every run capacity up
  // to 64, so a group's freed runs serve the next group's growth. Half the
  // groups are then removed past the compaction threshold, which packs the
  // survivors into a fresh pool, and all but one of them regrow with new
  // segments. Freed space is reused: the first phase peaks within a block
  // of what its final runs occupy (without the free lists it would need
  // about twice that), and the second phase needs no more blocks than the
  // first did at its peak.
  constexpr std::size_t kGroups = 16;
  constexpr std::size_t kGroupHashes = 512;
  constexpr SegmentId kPerGroup = 64;
  util::Rng rng(21);
  HashDb db;
  ReferenceHashDb model(HashDb::kDefaultDeadCompactionThreshold);
  std::vector<std::vector<text::Hash>> groups(kGroups);
  for (auto& group : groups) {
    for (std::size_t i = 0; i < kGroupHashes; ++i) {
      group.push_back(static_cast<text::Hash>(rng.next()));
    }
    std::sort(group.begin(), group.end());
  }
  util::Timestamp clock = 100;
  SegmentId next = 1;
  const auto grow = [&](std::size_t firstGroup, std::size_t lastGroup) {
    std::size_t peak = 0;
    for (std::size_t g = firstGroup; g <= lastGroup; ++g) {
      for (SegmentId i = 0; i < kPerGroup; ++i, ++next) {
        db.recordFingerprint(kPar, groups[g], next, ++clock);
        for (text::Hash h : groups[g]) model.record(kPar, h, next, clock);
        peak = std::max(peak, db.poolBlockCount());
      }
    }
    return peak;
  };
  const std::size_t firstPeak = grow(0, kGroups - 1);
  constexpr std::size_t kEntriesPerBlock = 65536;  // 512 KiB of 8 bytes
  EXPECT_LE(firstPeak,
            kGroups * kGroupHashes * kPerGroup / kEntriesPerBlock + 1);
  for (SegmentId s = 1; s <= kPerGroup * kGroups / 2; ++s) {
    db.removeSegment(kPar, s);
    model.remove(kPar, s);
  }
  EXPECT_LT(db.poolBlockCount(), firstPeak);
  const std::size_t secondPeak = grow(0, kGroups / 2 - 2);
  EXPECT_LE(secondPeak, firstPeak);

  std::vector<text::Hash> probes;
  for (const auto& group : groups) probes.push_back(group.front());
  std::vector<SegmentId> sample;
  for (SegmentId s = 1; s < next; s += 97) sample.push_back(s);
  expectMatchesModel(db, model, probes, sample);
}

TEST(HashDbModel, FirstRecordHoldsRepeatedHashesOnceInLongHistories) {
  // 240 segments share hashes 1..40, so each of those histories has 240
  // owners and a new segment's scans stop at its stamp. A new id then
  // records one batch that repeats hashes next to each other and more than
  // every prefetch distance apart, stamped like the newest owner so the
  // scan meets an equal stamp of another segment before its own entry.
  HashDb db;
  ReferenceHashDb model(HashDb::kDefaultDeadCompactionThreshold);
  std::vector<text::Hash> shared;
  for (text::Hash h = 1; h <= 40; ++h) shared.push_back(h);
  util::Timestamp clock = 100;
  for (SegmentId s = 1; s <= 240; ++s) {
    db.recordFingerprint(kPar, shared, s, ++clock);
    for (text::Hash h : shared) model.record(kPar, h, s, clock);
  }
  std::vector<text::Hash> batch = {5, 5, 7, 1000, 9, 7, 1000, 5};
  for (text::Hash h = 11; h <= 30; ++h) batch.push_back(h);
  for (text::Hash h : {5, 30, 1000, 9, 9}) batch.push_back(h);
  db.recordFingerprint(kPar, batch, 241, clock);
  for (text::Hash h : batch) model.record(kPar, h, 241, clock);

  for (text::Hash h : batch) {
    const std::vector<SegmentId> owners = db.segmentsWith(kPar, h);
    EXPECT_EQ(std::count(owners.begin(), owners.end(), 241), 1) << h;
  }
  EXPECT_EQ(db.segmentsWith(kPar, 5).size(), 241u);
  std::vector<text::Hash> probes = shared;
  probes.push_back(1000);
  expectMatchesModel(db, model, probes, {1, 120, 239, 240, 241, 242});
}

TEST(HashDbModel, FreshIdSessionsMatchReferenceModel) {
  // Sessions shaped like a preload: most batches come from a new segment
  // id of either kind, a first record whose run scans stop at its stamp,
  // and draw on a small shared pool, so histories pass 100 owners. Mixed
  // in: re-records of known ids, ids recorded below the largest one so
  // far, first-time restores stamped older than the entries they join,
  // re-records after compaction, and fresh hashes that grow the table in
  // the middle of a batch.
  // Occupancies at which the next new hash grows a table of 16 << k slots;
  // a rebuild regrows from 16 slots, so the sequence holds throughout.
  const std::vector<std::size_t> growthPoints = {11, 22, 44, 89, 179, 358};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const std::size_t threshold = rng.uniform(0, 6);
    HashDb db;
    db.setDeadCompactionThreshold(threshold);
    ReferenceHashDb model(threshold);
    std::vector<text::Hash> pool(32);
    for (text::Hash& h : pool) h = static_cast<text::Hash>(rng.next());
    std::vector<SegmentId> known;
    std::map<SegmentId, SegmentKind> kinds;
    std::vector<SegmentId> skipped;  // ids left out, recorded later
    SegmentId next = 1;
    util::Timestamp clock = 1000;
    std::size_t longestHistory = 0;
    std::size_t midBatchGrowths = 0;
    const auto newId = [&] {
      SegmentId id;
      if (!skipped.empty() && rng.chance(0.3)) {
        id = skipped.back();
        skipped.pop_back();
      } else {
        if (rng.chance(0.1)) skipped.push_back(next++);
        id = next++;
      }
      kinds[id] = rng.chance(0.5) ? kPar : kDoc;
      return id;
    };
    for (int step = 0; step < 500; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.04 && !known.empty()) {
        const SegmentId victim = rng.pick(known);
        db.removeSegment(kinds[victim], victim);
        model.remove(kinds[victim], victim);
      } else if (roll < 0.07) {
        ASSERT_EQ(db.compactDead(), model.compact());
      } else if (roll < 0.13) {
        // Restores of a first-time id, older than what they join, then
        // again at other stamps (the id is known by then).
        const SegmentId id = newId();
        known.push_back(id);
        for (std::size_t i = rng.uniform(1, 4); i > 0; --i) {
          const text::Hash h = rng.pick(pool);
          const util::Timestamp f = clock - rng.uniform(0, 500);
          db.recordObservation(kinds[id], h, id, f);
          model.record(kinds[id], h, id, f);
        }
      } else {
        const bool reRecord = roll < 0.3 && !known.empty();
        const SegmentId id = reRecord ? rng.pick(known) : newId();
        if (!reRecord) known.push_back(id);
        std::vector<text::Hash> hashes;  // unsorted, with repeats
        for (std::size_t i = rng.uniform(0, 60); i > 0; --i) {
          hashes.push_back(rng.chance(0.12)
                               ? static_cast<text::Hash>(rng.next())
                               : rng.pick(pool));
        }
        util::Timestamp ts = clock;  // 10%: equal to the last stamp
        if (const double when = rng.uniform01(); when < 0.8) {
          ts = ++clock;
        } else if (when < 0.9) {
          ts = clock - rng.uniform(1, 30);
        }
        const std::size_t before = model.slots();
        db.recordFingerprint(kinds[id], hashes, id, ts);
        for (text::Hash h : hashes) model.record(kinds[id], h, id, ts);
        const std::size_t after = model.slots();
        for (std::size_t point : growthPoints) {
          if (before < point && point < after) ++midBatchGrowths;
        }
      }
      if (step % 50 == 49) {
        for (text::Hash h : pool) {
          for (const SegmentKind kind : kKinds) {
            longestHistory =
                std::max(longestHistory, db.segmentsWith(kind, h).size());
          }
        }
        std::vector<SegmentId> sample(known.begin(), known.end());
        sample.push_back(next);  // never recorded
        std::vector<text::Hash> probes = pool;
        probes.push_back(static_cast<text::Hash>(rng.next()));  // never stored
        expectMatchesModel(db, model, probes, sample);
      }
    }
    EXPECT_GT(longestHistory, 100u);
    EXPECT_GT(midBatchGrowths, 0u);
  }
}

// ---- Growth and compaction re-place slots in place -------------------------

/// `count` hashes, from `from` upward, whose home slot in a table of mask
/// `mask` is `slot`.
std::vector<text::Hash> hashesHomedAt(std::size_t mask, std::size_t slot,
                                      std::size_t count, text::Hash from) {
  std::vector<text::Hash> out;
  for (text::Hash h = from; out.size() < count; ++h) {
    if ((util::mix64(h) & mask) == slot) out.push_back(h);
  }
  return out;
}

TEST(HashDbModel, CompactDeadOnAStoreWithoutSlots) {
  // Dead ids and no slot table, before the first record and after a
  // compaction dropped every hash: compaction has nothing to walk, clears
  // the dead set and leaves the store usable.
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{1000}}) {
    SCOPED_TRACE(threshold);
    HashDb db;
    db.setDeadCompactionThreshold(threshold);
    ReferenceHashDb model(threshold);
    db.removeSegment(kPar, 3);
    model.remove(kPar, 3);
    ASSERT_EQ(db.compactDead(), model.compact());
    expectMatchesModel(db, model, {1, 2}, {3, 4});
    db.recordObservation(kPar, 1, 4, 10);
    model.record(kPar, 1, 4, 10);
    db.removeSegment(kPar, 4);
    model.remove(kPar, 4);
    ASSERT_EQ(db.compactDead(), model.compact());
    EXPECT_EQ(db.memoryBytes(), 0u);  // every hash dropped: no table
    db.removeSegment(kDoc, 5);
    model.remove(kDoc, 5);
    ASSERT_EQ(db.compactDead(), model.compact());
    db.recordObservation(kDoc, 2, 6, 11);
    model.record(kDoc, 2, 6, 11);
    expectMatchesModel(db, model, {1, 2}, {3, 4, 5, 6});
  }
}

TEST(HashDbModel, ClusterThatWrapsSurvivesDoublingAndCompaction) {
  // A cluster from the last slot of a 16-slot table through slot 0 is
  // re-placed by a doubling into a cluster that wraps the 32-slot table
  // the same way (two hashes homed at slot 31), then compacted in place
  // with its first slot dropped, so a survivor homed at 31 takes it and
  // one homed at 0 moves back to slot 0. Heads of both kinds, compact and
  // spilled, ride along.
  const std::vector<text::Hash> last = hashesHomedAt(31, 31, 2, 1);
  const std::vector<text::Hash> mid = hashesHomedAt(31, 15, 2, 1);
  const text::Hash zero = hashesHomedAt(31, 0, 1, 1).front();
  const text::Hash sixteen = hashesHomedAt(31, 16, 1, 1).front();
  std::vector<text::Hash> fillers;  // a cluster of their own, slots 6..10
  for (std::size_t slot = 6; slot <= 10; ++slot) {
    fillers.push_back(hashesHomedAt(31, slot, 1, 1).front());
  }
  HashDb db;
  db.setDeadCompactionThreshold(1000);
  ReferenceHashDb model(1000);
  util::Timestamp clock = 10;
  const auto record = [&](SegmentKind kind, text::Hash h, SegmentId s) {
    db.recordObservation(kind, h, s, ++clock);
    model.record(kind, h, s, clock);
  };
  // Segment 3 alone holds last[0]; 1 and 5 share the rest (spilled heads);
  // document 2 holds the wrapping hashes too.
  record(kPar, last[0], 3);
  for (text::Hash h : {last[1], mid[0], mid[1], zero, sixteen}) {
    record(kPar, h, 1);
    record(kDoc, h, 2);
  }
  for (text::Hash h : {last[1], zero}) record(kPar, h, 5);
  for (text::Hash h : fillers) record(kPar, h, 1);
  std::vector<text::Hash> probes = {last[0], last[1], mid[0],  mid[1],
                                    zero,    sixteen, 999999};
  probes.insert(probes.end(), fillers.begin(), fillers.end());
  const std::vector<SegmentId> segments = {1, 2, 3, 5};
  expectMatchesModel(db, model, probes, segments);

  const std::vector<text::Hash> grower = hashesHomedAt(31, 20, 6, 1);
  const std::size_t sixteenSlots = db.memoryBytes();
  record(kPar, grower[0], 1);  // the 12th hash doubles the table
  ASSERT_EQ(db.memoryBytes() - sixteenSlots, 16 * 20u);
  expectMatchesModel(db, model, probes, segments);
  for (std::size_t i = 1; i < grower.size(); ++i) record(kPar, grower[i], 1);
  probes.insert(probes.end(), grower.begin(), grower.end());
  const std::size_t grown = db.memoryBytes();

  db.removeSegment(kPar, 3);
  model.remove(kPar, 3);
  ASSERT_EQ(db.compactDead(), model.compact());
  expectMatchesModel(db, model, probes, segments);
  EXPECT_EQ(db.memoryBytes(), grown)  // 16 hashes keep 32 slots
      << "the compaction must walk the table in place";
  record(kPar, last[0], 6);  // the dropped hash returns
  expectMatchesModel(db, model, probes, {1, 2, 3, 5, 6});
}

TEST(HashDbModel, EveryDoublingUpTo65536SlotsKeepsEveryHash) {
  // Right after each doubling from 16 to 65,536 slots, every hash recorded
  // so far answers segmentsWith and firstSeen for both kinds as the model
  // does. A third of the hashes have a second paragraph owner (a spilled
  // head) and half have a document head.
  HashDb db;
  ReferenceHashDb model(HashDb::kDefaultDeadCompactionThreshold);
  // The k-th new hash grows a table of s slots when k reaches 70% of s.
  std::set<std::size_t> growthAt;
  for (std::size_t slots = 16; slots <= 32768; slots *= 2) {
    growthAt.insert((slots * 7 + 9) / 10);
  }
  util::Rng rng(37);
  std::set<text::Hash> seen;
  std::vector<text::Hash> hashes;
  const std::vector<SegmentId> segments = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t checks = 0;
  while (hashes.size() < *growthAt.rbegin()) {
    const auto h = static_cast<text::Hash>(rng.next());
    if (!seen.insert(h).second) continue;
    hashes.push_back(h);
    const util::Timestamp ts = hashes.size();
    const SegmentId owner = 1 + 2 * (h % 3);  // paragraphs are odd
    db.recordObservation(kPar, h, owner, ts);
    model.record(kPar, h, owner, ts);
    if (h % 3 == 0) {
      db.recordObservation(kPar, h, 7, ts + 1);
      model.record(kPar, h, 7, ts + 1);
    }
    if (h % 2 == 0) {
      const SegmentId doc = 2 + 2 * (h % 4 / 2);
      db.recordObservation(kDoc, h, doc, ts);
      model.record(kDoc, h, doc, ts);
    }
    if (growthAt.count(hashes.size()) == 0) continue;
    ++checks;
    for (const SegmentKind kind : kKinds) {
      for (text::Hash probe : hashes) {
        ASSERT_EQ(db.segmentsWith(kind, probe), model.segmentsWith(kind, probe))
            << hashes.size() << " " << probe;
        for (SegmentId s : model.segmentsWith(kind, probe)) {
          ASSERT_EQ(db.firstSeen(kind, probe, s),
                    model.find(kind, probe, s)->firstSeen);
        }
      }
    }
  }
  EXPECT_EQ(checks, 12u);
  EXPECT_GE(db.memoryBytes(), std::size_t{65536} * 20);
  EXPECT_EQ(db.distinctHashCount(kPar), hashes.size());
}

// ---- Batch entry points against the per-hash loops ------------------------

std::vector<std::pair<SegmentId, text::Hash>> ownersOneByOne(
    const HashDb& db, SegmentKind kind, const std::vector<text::Hash>& hashes) {
  std::vector<std::pair<SegmentId, text::Hash>> claims;
  for (text::Hash h : hashes) {
    if (const auto owner = db.oldestSegmentWith(kind, h)) {
      claims.emplace_back(*owner, h);
    }
  }
  return claims;
}

std::vector<std::pair<SegmentId, text::Hash>> ownersBatched(
    const HashDb& db, SegmentKind kind, const std::vector<text::Hash>& hashes) {
  std::vector<std::pair<SegmentId, text::Hash>> claims;
  db.oldestOwners(kind, hashes, claims);
  return claims;
}

void expectSameStore(const HashDb& batched, const HashDb& looped,
                     const std::vector<text::Hash>& probes,
                     const std::vector<SegmentId>& segments) {
  ASSERT_TRUE(StoreShape(batched) == StoreShape(looped));
  EXPECT_EQ(batched.deadSegmentCount(), looped.deadSegmentCount());
  for (const SegmentKind kind : kKinds) {
    EXPECT_EQ(batched.distinctHashCount(kind), looped.distinctHashCount(kind));
    for (text::Hash h : probes) {
      for (SegmentId s : segments) {
        ASSERT_EQ(batched.firstSeen(kind, h, s), looped.firstSeen(kind, h, s))
            << h;
      }
    }
    EXPECT_EQ(ownersBatched(batched, kind, probes),
              ownersOneByOne(looped, kind, probes));
    EXPECT_EQ(ownersBatched(batched, kind, probes),
              ownersOneByOne(batched, kind, probes));
  }
}

TEST(HashDbBatch, EmptyTableAndShortBatches) {
  HashDb batched;
  HashDb looped;
  const std::vector<text::Hash> none;
  EXPECT_TRUE(ownersBatched(batched, kPar, {1, 2, 3}).empty());
  batched.recordFingerprint(kPar, none, 1, 5);
  expectSameStore(batched, looped, {1, 2, 3}, {1, 2, 3});
  // Shorter than every prefetch distance, with a repeated hash.
  const std::vector<text::Hash> shortBatch = {7, 3, 7};
  batched.recordFingerprint(kPar, shortBatch, 2, 6);
  for (text::Hash h : shortBatch) looped.recordObservation(kPar, h, 2, 6);
  expectSameStore(batched, looped, {3, 7, 9}, {1, 2, 3});
  EXPECT_TRUE(ownersBatched(batched, kPar, none).empty());
}

TEST(HashDbBatch, OwnersSkipADeadInlineOwner) {
  HashDb db;
  db.setDeadCompactionThreshold(1000);
  const std::vector<text::Hash> hashes = {11, 12, 13};
  const std::vector<text::Hash> laterCopy = {12, 13};
  db.recordFingerprint(kPar, hashes, 1, 10);
  db.recordFingerprint(kPar, laterCopy, 2, 20);
  db.recordFingerprint(kDoc, hashes, 3, 5);
  db.removeSegment(kPar, 1);  // lazy: segment 1 still holds the inline seats
  ASSERT_EQ(db.deadSegmentCount(), 1u);
  const std::vector<std::pair<SegmentId, text::Hash>> want = {{2, 12},
                                                                 {2, 13}};
  EXPECT_EQ(ownersBatched(db, kPar, hashes), want);
  const std::vector<std::pair<SegmentId, text::Hash>> documents = {
      {3, 11}, {3, 12}, {3, 13}};
  EXPECT_EQ(ownersBatched(db, kDoc, hashes), documents);
}

TEST(HashDbBatch, RandomSessionsMatchPerHashLoops) {
  // Seeded sessions of overlapping paragraph and document segments (odd
  // ids are paragraphs, even ids documents, two of them past 2^32):
  // re-observes, equal and out-of-order timestamps, stamps past 2^32,
  // removals of either kind on both sides of the compaction threshold and
  // growth through several doublings. After every step the batched store
  // must equal the per-hash one, down to export order and bytes. A segment
  // never removed re-records everything it recorded so far at a later
  // stamp now and then: neither store may change.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  std::vector<SegmentId> segments;
  for (SegmentId s = 1; s <= 22; ++s) segments.push_back(s);
  segments.push_back(k32 + 1);
  segments.push_back(k32 + 2);
  const auto kindOf = [](SegmentId s) { return s % 2 == 1 ? kPar : kDoc; };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    HashDb batched;
    HashDb looped;
    batched.setDeadCompactionThreshold(3);
    looped.setDeadCompactionThreshold(3);
    // A shared pool makes segments overlap; fresh hashes drive growth.
    std::vector<text::Hash> pool(1500);
    for (text::Hash& h : pool) h = static_cast<text::Hash>(rng.next());
    util::Timestamp clock = 100;
    std::map<SegmentId, std::vector<text::Hash>> recorded;
    std::set<SegmentId> removed;
    for (int step = 0; step < 160; ++step) {
      if (rng.chance(0.12)) {
        const SegmentId victim = rng.pick(segments);
        batched.removeSegment(kindOf(victim), victim);
        looped.removeSegment(kindOf(victim), victim);
        removed.insert(victim);
      } else if (const SegmentId again = rng.pick(segments);
                 rng.chance(0.15) && removed.count(again) == 0) {
        const std::vector<text::Hash>& held = recorded[again];
        const StoreShape batchedBefore(batched);
        const StoreShape loopedBefore(looped);
        clock += 10;
        batched.recordFingerprint(kindOf(again), held, again, clock);
        for (text::Hash h : held) {
          looped.recordObservation(kindOf(again), h, again, clock);
        }
        ASSERT_TRUE(StoreShape(batched) == batchedBefore);
        ASSERT_TRUE(StoreShape(looped) == loopedBefore);
      } else {
        const SegmentId segment = rng.pick(segments);
        std::size_t n = rng.uniform(0, 120);
        if (rng.chance(0.2)) n = rng.uniform(0, 20);  // around the distances
        std::vector<text::Hash> hashes;
        for (std::size_t i = 0; i < n; ++i) {
          hashes.push_back(rng.chance(0.7)
                               ? rng.pick(pool)
                               : static_cast<text::Hash>(rng.next()));
        }
        if (rng.chance(0.8)) {  // fingerprints are sorted and distinct
          std::sort(hashes.begin(), hashes.end());
          hashes.erase(std::unique(hashes.begin(), hashes.end()),
                       hashes.end());
        }
        if (rng.chance(0.03)) clock += k32;  // later stamps spill
        util::Timestamp ts = clock;
        if (rng.chance(0.7)) {
          ts = ++clock;
        } else if (rng.chance(0.5)) {
          ts = clock - rng.uniform(1, 50);  // out of order
        }  // else: equal to the previous stamp
        const SegmentKind kind = kindOf(segment);
        batched.recordFingerprint(kind, hashes, segment, ts);
        for (text::Hash h : hashes) {
          looped.recordObservation(kind, h, segment, ts);
        }
        recorded[segment].insert(recorded[segment].end(), hashes.begin(),
                                 hashes.end());
      }
      if (step % 20 == 19) {
        std::vector<text::Hash> probes(pool.begin(), pool.begin() + 300);
        probes.push_back(static_cast<text::Hash>(rng.next()));  // never stored
        expectSameStore(batched, looped, probes, segments);
      }
    }
    // More than 2000 live hashes: >= 8 doublings from 16.
    std::set<text::Hash> live;
    for (const SegmentKind kind : kKinds) {
      for (const auto& row : exportOrder(batched, kind)) {
        live.insert(std::get<0>(row));
      }
    }
    EXPECT_GT(live.size(), 2000u);
    expectSameStore(batched, looped, pool, segments);
  }
}

}  // namespace
}  // namespace bf::flow
