// Tests for HashDb ("DBhash", paper S4.3).
//
// BF_HASHDB_MODEL_SEED and BF_HASHDB_MODEL_TRIALS widen the seeded sweep of
// HashDbModel.RandomSessionsMatchReferenceModel; the defaults keep ctest
// quick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "flow/hash_db.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

using AssociationRowValue = std::pair<SegmentId, util::Timestamp>;

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Every live association of `db` as (hash, segment, firstSeen), in export
/// order.
using AssociationRow = std::tuple<text::Hash, SegmentId, util::Timestamp>;

std::vector<AssociationRow> exportOrder(const HashDb& db) {
  std::vector<AssociationRow> rows;
  db.forEachAssociation([&](text::Hash h, SegmentId s, util::Timestamp f) {
    rows.emplace_back(h, s, f);
  });
  return rows;
}

/// What re-recording held associations must leave as it was: the bytes,
/// the slot shapes and every association.
struct StoreShape {
  std::size_t memoryBytes;
  std::size_t spilled;
  std::size_t associations;
  std::vector<AssociationRow> rows;

  explicit StoreShape(const HashDb& db)
      : memoryBytes(db.memoryBytes()),
        spilled(db.spilledHashCount()),
        associations(db.associationCount()),
        rows(exportOrder(db)) {}
  bool operator==(const StoreShape&) const = default;
};

TEST(HashDb, OldestSegmentIsFirstObserver) {
  HashDb db;
  db.recordObservation(42, 1, 10);
  db.recordObservation(42, 2, 20);
  ASSERT_TRUE(db.oldestSegmentWith(42).has_value());
  EXPECT_EQ(*db.oldestSegmentWith(42), 1u);
}

TEST(HashDb, UnknownHash) {
  HashDb db;
  EXPECT_FALSE(db.oldestSegmentWith(99).has_value());
  EXPECT_TRUE(db.segmentsWith(99).empty());
}

TEST(HashDb, ReobservationKeepsOriginalTimestamp) {
  HashDb db;
  db.recordObservation(42, 1, 10);
  db.recordObservation(42, 1, 50);  // same (hash, segment) later
  ASSERT_TRUE(db.firstSeen(42, 1).has_value());
  EXPECT_EQ(*db.firstSeen(42, 1), 10u);
}

TEST(HashDb, ReobservationLeavesTheStoreUnchanged) {
  // Re-recording a held (hash, segment) is a no-op: a compact slot stays
  // compact and a history keeps its entries, whatever the new stamp.
  HashDb db;
  const std::vector<text::Hash> own = {1, 2, 3, 4, 5};
  const std::vector<text::Hash> shared = {3, 4};
  db.recordFingerprint(own, 1, 10);
  db.recordFingerprint(shared, 2, 20);
  ASSERT_EQ(db.spilledHashCount(), 2u);
  const StoreShape before(db);
  db.recordFingerprint(own, 1, 70);
  db.recordFingerprint(shared, 2, 80);
  db.recordObservation(1, 1, 90);
  db.recordObservation(4, 2, 5);  // an older stamp moves nothing either
  db.recordObservation(4, 1, std::uint64_t{1} << 40);
  EXPECT_TRUE(StoreShape(db) == before);
  EXPECT_EQ(*db.firstSeen(1, 1), 10u);
  EXPECT_EQ(*db.firstSeen(4, 2), 20u);
}

TEST(HashDb, SegmentsWithOrderedOldestFirst) {
  HashDb db;
  db.recordObservation(7, 3, 30);
  db.recordObservation(7, 1, 40);
  db.recordObservation(7, 2, 50);
  const auto segs = db.segmentsWith(7);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], 3u);
  EXPECT_EQ(segs[1], 1u);
  EXPECT_EQ(segs[2], 2u);
}

TEST(HashDb, OutOfOrderTimestampsSortedIn) {
  HashDb db;
  db.recordObservation(7, 1, 100);
  db.recordObservation(7, 2, 50);  // older than existing entry
  EXPECT_EQ(*db.oldestSegmentWith(7), 2u);
}

TEST(HashDb, RemovedSegmentSkippedByLookups) {
  HashDb db;
  db.recordObservation(7, 1, 10);
  db.recordObservation(7, 2, 20);
  db.removeSegment(1);
  EXPECT_EQ(*db.oldestSegmentWith(7), 2u);
  EXPECT_EQ(db.segmentsWith(7).size(), 1u);
  EXPECT_FALSE(db.firstSeen(7, 1).has_value());
}

TEST(HashDb, RemovalPromotesNextOldest) {
  // The authoritative source changes when the original is deleted —
  // provenance falls to the next-oldest copy.
  HashDb db;
  db.recordObservation(7, 1, 10);
  db.recordObservation(7, 2, 20);
  db.recordObservation(7, 3, 30);
  db.removeSegment(1);
  EXPECT_EQ(*db.oldestSegmentWith(7), 2u);
  db.removeSegment(2);
  EXPECT_EQ(*db.oldestSegmentWith(7), 3u);
  db.removeSegment(3);
  EXPECT_FALSE(db.oldestSegmentWith(7).has_value());
}

TEST(HashDb, RemovalGenerationBumps) {
  HashDb db;
  const auto g0 = db.removalGeneration();
  db.removeSegment(5);
  EXPECT_GT(db.removalGeneration(), g0);
}

TEST(HashDb, DistinctHashCount) {
  HashDb db;
  db.recordObservation(1, 1, 1);
  db.recordObservation(1, 2, 2);
  db.recordObservation(2, 1, 3);
  EXPECT_EQ(db.distinctHashCount(), 2u);
}

TEST(HashDb, CompactDeadShrinksStore) {
  // The tombstone fix: physically removing a dead segment's associations
  // must shrink the store and clear the dead set, so lookups stop paying
  // the isDead probe for segments removed long ago.
  HashDb db;
  for (text::Hash h = 0; h < 100; ++h) {
    db.recordObservation(h, 1, 10);
    db.recordObservation(h, 2, 20);
  }
  ASSERT_EQ(db.associationCount(), 200u);
  db.setDeadCompactionThreshold(1000);  // keep removal lazy for this test
  db.removeSegment(1);
  EXPECT_EQ(db.deadSegmentCount(), 1u);
  EXPECT_EQ(db.associationCount(), 200u);  // lazy: nothing purged yet

  const std::size_t dropped = db.compactDead();
  EXPECT_EQ(dropped, 100u);
  EXPECT_EQ(db.associationCount(), 100u);  // store physically shrank
  EXPECT_EQ(db.deadSegmentCount(), 0u);    // tombstones cleared
  for (text::Hash h = 0; h < 100; ++h) {
    EXPECT_EQ(*db.oldestSegmentWith(h), 2u);
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
      db.recordObservation(h, 1, 10);
      fresh.recordObservation(h, 1, 10);
    }
    for (text::Hash h = 0; h < 500; ++h) db.recordObservation(1000 + h, 2, 20);
    db.removeSegment(2);
    EXPECT_EQ(db.compactDead(), 500u);
    EXPECT_EQ(db.distinctHashCount(), survivors);
    EXPECT_EQ(db.memoryBytes(), fresh.memoryBytes()) << survivors;
    for (text::Hash h = 0; h < survivors; ++h) {
      EXPECT_EQ(*db.oldestSegmentWith(h), 1u);
    }
    db.recordObservation(7777, 3, 30);  // the rebuilt table takes inserts
    EXPECT_EQ(*db.oldestSegmentWith(7777), 3u);
  }
}

TEST(HashDb, RemovalAutoCompactsPastThreshold) {
  HashDb db;
  db.setDeadCompactionThreshold(2);
  for (text::Hash h = 0; h < 10; ++h) {
    db.recordObservation(h, 1, 10);
    db.recordObservation(h, 2, 20);
    db.recordObservation(h, 3, 30);
    db.recordObservation(h + 100, 4, 40);
  }
  db.removeSegment(1);
  db.removeSegment(2);
  EXPECT_EQ(db.deadSegmentCount(), 2u);    // at the threshold: still lazy
  EXPECT_EQ(db.associationCount(), 40u);
  db.removeSegment(3);                     // exceeds it: compacts
  EXPECT_EQ(db.deadSegmentCount(), 0u);
  EXPECT_EQ(db.associationCount(), 10u);   // only segment 4's remain
  EXPECT_EQ(db.distinctHashCount(), 10u);  // hashes 0..9 fully gone
  for (text::Hash h = 0; h < 10; ++h) {
    EXPECT_FALSE(db.oldestSegmentWith(h).has_value());
    EXPECT_EQ(*db.oldestSegmentWith(h + 100), 4u);
  }
}

TEST(HashDb, ZeroThresholdCompactsOnEveryRemoval) {
  HashDb db;
  db.setDeadCompactionThreshold(0);
  db.recordObservation(1, 1, 10);
  db.recordObservation(1, 2, 20);
  db.removeSegment(1);
  EXPECT_EQ(db.deadSegmentCount(), 0u);
  EXPECT_EQ(db.associationCount(), 1u);
  EXPECT_EQ(*db.oldestSegmentWith(1), 2u);
}

TEST(HashDb, ObservationAfterCompactionRebuildsHistory) {
  // A compacted-away segment can be re-observed later (e.g. restored from
  // a snapshot or re-created under the same id) without tombstone residue.
  HashDb db;
  db.setDeadCompactionThreshold(0);
  db.recordObservation(1, 1, 10);
  db.removeSegment(1);
  ASSERT_FALSE(db.oldestSegmentWith(1).has_value());
  db.recordObservation(1, 1, 99);
  EXPECT_EQ(*db.oldestSegmentWith(1), 1u);
  EXPECT_EQ(*db.firstSeen(1, 1), 99u);  // fresh observation, fresh time
}

TEST(HashDb, ManyHashesSurviveRehashing) {
  // Growth past several load-factor doublings must keep every history
  // intact (the rehash moves slots; history indices must stay valid).
  HashDb db;
  for (text::Hash h = 0; h < 5000; ++h) {
    db.recordObservation(h, (h % 7) + 1, h);
    if (h % 3 == 0) db.recordObservation(h, (h % 7) + 2, h + 1);
  }
  EXPECT_EQ(db.distinctHashCount(), 5000u);
  for (text::Hash h = 0; h < 5000; ++h) {
    ASSERT_TRUE(db.oldestSegmentWith(h).has_value()) << h;
    EXPECT_EQ(*db.oldestSegmentWith(h), (h % 7) + 1) << h;
    EXPECT_EQ(db.segmentsWith(h).size(), h % 3 == 0 ? 2u : 1u) << h;
  }
}

TEST(HashDb, WideIdsAndStampsStayExact) {
  // Segment ids and stamps past 32 bits take the spilled slot shape; the
  // answers must not depend on which shape holds them.
  constexpr SegmentId kWide = (SegmentId{1} << 32) + 7;
  constexpr util::Timestamp kLate = util::Timestamp{1} << 40;
  HashDb db;
  db.recordObservation(1, kWide, 30);
  db.recordObservation(2, 0xffffffffu, 30);
  db.recordObservation(3, 4, kLate);
  db.recordObservation(4, 5, 40);
  db.recordObservation(4, kWide, 35);  // wide id becomes the oldest
  db.recordObservation(5, 6, (util::Timestamp{1} << 31) - 1);
  db.recordObservation(6, 6, util::Timestamp{1} << 31);
  db.recordObservation(7, 0xfffffffeu, 30);
  EXPECT_EQ(*db.firstSeen(5, 6), (util::Timestamp{1} << 31) - 1);
  EXPECT_EQ(*db.firstSeen(6, 6), util::Timestamp{1} << 31);
  EXPECT_EQ(*db.oldestSegmentWith(7), 0xfffffffeu);
  EXPECT_EQ(*db.oldestSegmentWith(1), kWide);
  EXPECT_EQ(*db.oldestSegmentWith(2), 0xffffffffu);
  EXPECT_EQ(*db.firstSeen(3, 4), kLate);
  EXPECT_EQ(db.segmentsWith(4), (std::vector<SegmentId>{kWide, 5}));
  db.removeSegment(kWide);
  EXPECT_FALSE(db.oldestSegmentWith(1).has_value());
  EXPECT_EQ(*db.oldestSegmentWith(4), 5u);
}

TEST(HashDb, HistoryEntriesEscapeWideIdsAndStampsAtTheirBoundaries) {
  // A history entry holds a segment id up to 2^32 - 2 and a firstSeen up to
  // 2^32 - 1 inline; 2^32 - 1 as an id and 2^32 as a stamp are escaped.
  // Both shapes must answer identically and ignore re-observations.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  HashDb db;
  db.setDeadCompactionThreshold(1000);
  db.recordObservation(1, k32 - 2, 10);      // narrow
  db.recordObservation(1, k32 - 1, 11);      // escaped id
  db.recordObservation(1, k32 + 7, 12);      // escaped id
  db.recordObservation(2, 5, 20);
  db.recordObservation(2, 6, k32 - 1);       // narrow stamp
  db.recordObservation(2, 7, k32);           // escaped stamp
  db.recordObservation(2, k32 + 7, k32 + 3); // both escaped
  EXPECT_EQ(db.segmentsWith(1),
            (std::vector<SegmentId>{k32 - 2, k32 - 1, k32 + 7}));
  EXPECT_EQ(db.segmentsWith(2), (std::vector<SegmentId>{5, 6, 7, k32 + 7}));
  EXPECT_EQ(*db.firstSeen(2, 6), k32 - 1);
  EXPECT_EQ(*db.firstSeen(2, 7), k32);
  EXPECT_EQ(*db.firstSeen(2, k32 + 7), k32 + 3);

  // Re-observations of escaped entries add no escape and move no stamp.
  const StoreShape before(db);
  db.recordObservation(1, k32 + 7, 50);
  db.recordObservation(1, k32 - 1, 60);
  db.recordObservation(2, 7, k32 + 100);
  db.recordObservation(2, k32 + 7, k32 + 90);
  EXPECT_TRUE(StoreShape(db) == before);
  EXPECT_EQ(*db.firstSeen(1, k32 + 7), 12u);
  EXPECT_EQ(*db.firstSeen(2, 7), k32);

  // An escaped entry inserted out of order becomes the oldest owner.
  db.recordObservation(1, k32 + 9, 5);
  EXPECT_EQ(*db.oldestSegmentWith(1), k32 + 9);
  EXPECT_EQ(*db.firstSeen(1, k32 + 9), 5u);

  // A rebuild re-escapes the survivors into its fresh pool.
  db.removeSegment(k32 - 2);
  db.removeSegment(5);
  EXPECT_EQ(db.compactDead(), 2u);
  std::vector<AssociationRow> rows = exportOrder(db);
  std::sort(rows.begin(), rows.end());
  std::vector<AssociationRow> want = {
      {1, k32 + 9, 5},      {1, k32 - 1, 11},  {1, k32 + 7, 12},
      {2, 6, k32 - 1},      {2, 7, k32},       {2, k32 + 7, k32 + 3}};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(rows, want);
  EXPECT_EQ(db.segmentsWith(1),
            (std::vector<SegmentId>{k32 + 9, k32 - 1, k32 + 7}));
}

// ---- A naive reference model of the documented rules ----------------------

/// DBhash as its documentation states it, with no layout at all: per hash,
/// every association in firstSeen order (equal stamps in arrival order).
class ReferenceHashDb {
 public:
  using Association = HashDb::Association;

  explicit ReferenceHashDb(std::size_t threshold) : threshold_(threshold) {}

  void record(text::Hash hash, SegmentId segment, util::Timestamp ts) {
    if (!held_.emplace(hash, segment).second) return;  // a held pair stays
    std::vector<Association>& history = byHash_[hash];
    // After the last association first seen at or before ts (the history
    // is sorted, and the common append ends the search at once).
    const auto last = std::find_if(
        history.rbegin(), history.rend(),
        [&](const Association& a) { return a.firstSeen <= ts; });
    history.insert(last.base(), Association{segment, ts});
  }

  /// Every hash `segment` holds an association with, dead or alive.
  [[nodiscard]] std::vector<text::Hash> heldBy(SegmentId segment) const {
    std::vector<text::Hash> out;
    for (const auto& [hash, s] : held_) {
      if (s == segment) out.push_back(hash);
    }
    return out;
  }

  void remove(SegmentId segment) {
    dead_.insert(segment);
    ++generation_;
    if (dead_.size() > threshold_) compact();
  }

  std::size_t compact() {
    if (dead_.empty()) return 0;
    std::size_t dropped = 0;
    for (auto it = byHash_.begin(); it != byHash_.end();) {
      dropped += std::erase_if(it->second, [&](const Association& a) {
        const bool drop = dead(a.segment);
        if (drop) held_.erase({it->first, a.segment});
        return drop;
      });
      it = it->second.empty() ? byHash_.erase(it) : std::next(it);
    }
    dead_.clear();
    return dropped;
  }

  /// Live associations per hash, oldest first.
  [[nodiscard]] std::map<text::Hash, std::vector<AssociationRowValue>>
  liveHistories() const {
    std::map<text::Hash, std::vector<AssociationRowValue>> out;
    for (const auto& [hash, history] : byHash_) {
      for (const Association& a : history) {
        if (!dead(a.segment)) {
          out[hash].emplace_back(a.segment, a.firstSeen);
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::optional<SegmentId> oldest(text::Hash hash) const {
    const auto segments = segmentsWith(hash);
    if (segments.empty()) return std::nullopt;
    return segments.front();
  }

  [[nodiscard]] std::vector<SegmentId> segmentsWith(text::Hash hash) const {
    std::vector<SegmentId> out;
    if (const auto it = byHash_.find(hash); it != byHash_.end()) {
      for (const Association& a : it->second) {
        if (!dead(a.segment)) out.push_back(a.segment);
      }
    }
    return out;
  }

  [[nodiscard]] std::optional<Association> find(text::Hash hash,
                                                SegmentId segment) const {
    const auto it = byHash_.find(hash);
    if (dead(segment) || it == byHash_.end()) return std::nullopt;
    for (const Association& a : it->second) {
      if (a.segment == segment) return a;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t distinctHashes() const { return byHash_.size(); }
  [[nodiscard]] std::size_t associations() const {
    std::size_t n = 0;
    for (const auto& [hash, history] : byHash_) n += history.size();
    return n;
  }
  [[nodiscard]] std::size_t deadCount() const { return dead_.size(); }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  [[nodiscard]] bool dead(SegmentId s) const { return dead_.count(s) != 0; }

  std::map<text::Hash, std::vector<Association>> byHash_;
  std::set<std::pair<text::Hash, SegmentId>> held_;  // keys of byHash_
  std::set<SegmentId> dead_;
  std::size_t threshold_;
  std::uint64_t generation_ = 0;
};

void expectMatchesModel(const HashDb& db, const ReferenceHashDb& model,
                        const std::vector<text::Hash>& probes,
                        const std::vector<SegmentId>& segments) {
  std::map<text::Hash, std::vector<AssociationRowValue>> exported;
  db.forEachAssociation([&](text::Hash h, SegmentId s, util::Timestamp f) {
    exported[h].emplace_back(s, f);
  });
  ASSERT_EQ(exported, model.liveHistories());
  EXPECT_EQ(db.distinctHashCount(), model.distinctHashes());
  EXPECT_EQ(db.associationCount(), model.associations());
  EXPECT_EQ(db.deadSegmentCount(), model.deadCount());
  EXPECT_EQ(db.removalGeneration(), model.generation());
  std::vector<std::pair<SegmentId, text::Hash>> owners;
  db.oldestOwners(probes, owners);
  std::vector<std::pair<SegmentId, text::Hash>> wantOwners;
  for (text::Hash h : probes) {
    ASSERT_EQ(db.oldestSegmentWith(h), model.oldest(h)) << h;
    ASSERT_EQ(db.segmentsWith(h), model.segmentsWith(h)) << h;
    if (const auto owner = model.oldest(h)) wantOwners.emplace_back(*owner, h);
    for (SegmentId s : segments) {
      const auto want = model.find(h, s);
      ASSERT_EQ(db.firstSeen(h, s),
                want ? std::optional(want->firstSeen) : std::nullopt)
          << h << " " << s;
    }
  }
  EXPECT_EQ(owners, wantOwners);
}

TEST(HashDbModel, RandomSessionsMatchReferenceModel) {
  // Seeded sessions over ids and stamps on both sides of every 32-bit
  // boundary the slot layout has: ids up to and past 2^32 - 1, stamps past
  // 2^31 and 2^32, out-of-order restores, removals on both sides of the
  // compaction threshold, and re-observations of held associations, which
  // must leave the bytes, the slot shapes and every association as they
  // were.
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
    std::vector<SegmentId> segments = {1,       2,       3,       17,
                                       k32 - 2, k32 - 1, k32,     k32 + 9,
                                       SegmentId{1} << 40};
    std::vector<text::Hash> pool(300);
    for (text::Hash& h : pool) h = static_cast<text::Hash>(rng.next());
    const util::Timestamp starts[] = {100, (util::Timestamp{1} << 31) - 40,
                                      k32 - 40, util::Timestamp{1} << 40};
    util::Timestamp clock = starts[rng.uniform(0, 3)];
    for (int step = 0; step < 200; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.07) {
        const SegmentId victim = rng.pick(segments);
        db.removeSegment(victim);
        model.remove(victim);
      } else if (roll < 0.09) {
        ASSERT_EQ(db.compactDead(), model.compact());
      } else if (roll < 0.14) {
        clock += rng.chance(0.5) ? k32 : rng.uniform(k32, 4 * k32);
      } else if (roll < 0.27) {
        // Restore path: one association, possibly older than what it
        // joins.
        const text::Hash h = rng.chance(0.8) ? rng.pick(pool) : static_cast<text::Hash>(rng.next());
        const SegmentId s = rng.pick(segments);
        const util::Timestamp f = clock - rng.uniform(0, 80);
        db.recordObservation(h, s, f);
        model.record(h, s, f);
      } else if (roll < 0.35) {
        // Re-observation: everything a segment holds, shuffled, again at a
        // later stamp (one at a time or as a batch).
        const SegmentId s = rng.pick(segments);
        std::vector<text::Hash> held = model.heldBy(s);
        for (std::size_t i = held.size(); i > 1; --i) {
          std::swap(held[i - 1], held[rng.uniform(0, i - 1)]);
        }
        const StoreShape before(db);
        const util::Timestamp ts = clock + rng.uniform(1, 2 * k32);
        if (rng.chance(0.5)) {
          db.recordFingerprint(held, s, ts);
        } else {
          for (text::Hash h : held) db.recordObservation(h, s, ts);
        }
        for (text::Hash h : held) model.record(h, s, ts);
        ASSERT_TRUE(StoreShape(db) == before) << held.size();
      } else {
        const SegmentId s = rng.pick(segments);
        std::vector<text::Hash> hashes;
        const std::size_t n = rng.uniform(0, 50);
        for (std::size_t i = 0; i < n; ++i) {
          hashes.push_back(rng.chance(0.75) ? rng.pick(pool) : static_cast<text::Hash>(rng.next()));
        }
        const util::Timestamp ts =
            rng.chance(0.7) ? ++clock : clock - rng.uniform(0, 40);
        db.recordFingerprint(hashes, s, ts);
        for (text::Hash h : hashes) model.record(h, s, ts);
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
    db.recordFingerprint(hashes, s, ts);
    for (text::Hash h : hashes) model.record(h, s, ts);
  }
  EXPECT_GE(db.poolBlockCount(), 2u);
  const std::vector<SegmentId> sample = {1,     2,         999,
                                         1000,  32768,     65535,
                                         65536, 65537,     kSegments - 1,
                                         kSegments, kSegments + 1};
  for (SegmentId s : {SegmentId{1}, SegmentId{40000}, kSegments}) {
    db.recordObservation(7, s, clock + s);
    model.record(7, s, clock + s);
  }
  expectMatchesModel(db, model, {7, 8, 9}, sample);
  for (SegmentId s : {SegmentId{1}, SegmentId{2}, SegmentId{1000}}) {
    db.removeSegment(s);
    model.remove(s);
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
    for (std::size_t i = 0; i < kGroupHashes; ++i) group.push_back(static_cast<text::Hash>(rng.next()));
    std::sort(group.begin(), group.end());
  }
  util::Timestamp clock = 100;
  SegmentId next = 1;
  const auto grow = [&](std::size_t firstGroup, std::size_t lastGroup) {
    std::size_t peak = 0;
    for (std::size_t g = firstGroup; g <= lastGroup; ++g) {
      for (SegmentId i = 0; i < kPerGroup; ++i, ++next) {
        db.recordFingerprint(groups[g], next, ++clock);
        for (text::Hash h : groups[g]) model.record(h, next, clock);
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
    db.removeSegment(s);
    model.remove(s);
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
    db.recordFingerprint(shared, s, ++clock);
    for (text::Hash h : shared) model.record(h, s, clock);
  }
  std::vector<text::Hash> batch = {5, 5, 7, 1000, 9, 7, 1000, 5};
  for (text::Hash h = 11; h <= 30; ++h) batch.push_back(h);
  for (text::Hash h : {5, 30, 1000, 9, 9}) batch.push_back(h);
  db.recordFingerprint(batch, 241, clock);
  for (text::Hash h : batch) model.record(h, 241, clock);

  for (text::Hash h : batch) {
    const std::vector<SegmentId> owners = db.segmentsWith(h);
    EXPECT_EQ(std::count(owners.begin(), owners.end(), 241), 1) << h;
  }
  EXPECT_EQ(db.segmentsWith(5).size(), 241u);
  std::vector<text::Hash> probes = shared;
  probes.push_back(1000);
  expectMatchesModel(db, model, probes, {1, 120, 239, 240, 241, 242});
}

TEST(HashDbModel, FreshIdSessionsMatchReferenceModel) {
  // Sessions shaped like a preload: most batches come from a new segment
  // id, a first record whose run scans stop at its stamp, and draw on a
  // small shared pool, so histories pass 100 owners. Mixed in: re-records
  // of known ids, ids recorded below the largest one so far, first-time
  // restores stamped older than the entries they join, re-records after
  // compaction, and fresh hashes that grow the table in the middle of a
  // batch.
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
    std::vector<SegmentId> skipped;  // ids left out, recorded later
    SegmentId next = 1;
    util::Timestamp clock = 1000;
    std::size_t longestHistory = 0;
    std::size_t midBatchGrowths = 0;
    const auto newId = [&] {
      if (!skipped.empty() && rng.chance(0.3)) {
        const SegmentId id = skipped.back();
        skipped.pop_back();
        return id;
      }
      if (rng.chance(0.1)) skipped.push_back(next++);
      return next++;
    };
    for (int step = 0; step < 500; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.04 && !known.empty()) {
        const SegmentId victim = rng.pick(known);
        db.removeSegment(victim);
        model.remove(victim);
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
          db.recordObservation(h, id, f);
          model.record(h, id, f);
        }
      } else {
        const bool reRecord = roll < 0.3 && !known.empty();
        const SegmentId id = reRecord ? rng.pick(known) : newId();
        if (!reRecord) known.push_back(id);
        std::vector<text::Hash> hashes;  // unsorted, with repeats
        for (std::size_t i = rng.uniform(0, 60); i > 0; --i) {
          hashes.push_back(rng.chance(0.12) ? static_cast<text::Hash>(rng.next()) : rng.pick(pool));
        }
        util::Timestamp ts = clock;  // 10%: equal to the last stamp
        if (const double when = rng.uniform01(); when < 0.8) {
          ts = ++clock;
        } else if (when < 0.9) {
          ts = clock - rng.uniform(1, 30);
        }
        const std::size_t before = db.distinctHashCount();
        db.recordFingerprint(hashes, id, ts);
        for (text::Hash h : hashes) model.record(h, id, ts);
        const std::size_t after = db.distinctHashCount();
        for (std::size_t point : growthPoints) {
          if (before < point && point < after) ++midBatchGrowths;
        }
      }
      if (step % 50 == 49) {
        for (text::Hash h : pool) {
          longestHistory = std::max(longestHistory, db.segmentsWith(h).size());
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

// ---- Batch entry points against the per-hash loops ------------------------

std::vector<std::pair<SegmentId, text::Hash>> ownersOneByOne(
    const HashDb& db, const std::vector<text::Hash>& hashes) {
  std::vector<std::pair<SegmentId, text::Hash>> claims;
  for (text::Hash h : hashes) {
    if (const auto owner = db.oldestSegmentWith(h)) {
      claims.emplace_back(*owner, h);
    }
  }
  return claims;
}

std::vector<std::pair<SegmentId, text::Hash>> ownersBatched(
    const HashDb& db, const std::vector<text::Hash>& hashes) {
  std::vector<std::pair<SegmentId, text::Hash>> claims;
  db.oldestOwners(hashes, claims);
  return claims;
}

void expectSameStore(const HashDb& batched, const HashDb& looped,
                     const std::vector<text::Hash>& probes,
                     SegmentId maxSegment) {
  ASSERT_TRUE(StoreShape(batched) == StoreShape(looped));
  EXPECT_EQ(batched.distinctHashCount(), looped.distinctHashCount());
  EXPECT_EQ(batched.deadSegmentCount(), looped.deadSegmentCount());
  for (text::Hash h : probes) {
    for (SegmentId s = 1; s <= maxSegment; ++s) {
      ASSERT_EQ(batched.firstSeen(h, s), looped.firstSeen(h, s)) << h;
    }
  }
  EXPECT_EQ(ownersBatched(batched, probes), ownersOneByOne(looped, probes));
  EXPECT_EQ(ownersBatched(batched, probes), ownersOneByOne(batched, probes));
}

TEST(HashDbBatch, EmptyTableAndShortBatches) {
  HashDb batched;
  HashDb looped;
  const std::vector<text::Hash> none;
  EXPECT_TRUE(ownersBatched(batched, {1, 2, 3}).empty());
  batched.recordFingerprint(none, 1, 5);
  expectSameStore(batched, looped, {1, 2, 3}, 3);
  // Shorter than every prefetch distance, with a repeated hash.
  const std::vector<text::Hash> shortBatch = {7, 3, 7};
  batched.recordFingerprint(shortBatch, 2, 6);
  for (text::Hash h : shortBatch) looped.recordObservation(h, 2, 6);
  expectSameStore(batched, looped, {3, 7, 9}, 3);
  EXPECT_TRUE(ownersBatched(batched, none).empty());
}

TEST(HashDbBatch, OwnersSkipADeadInlineOwner) {
  HashDb db;
  db.setDeadCompactionThreshold(1000);
  const std::vector<text::Hash> hashes = {11, 12, 13};
  const std::vector<text::Hash> laterCopy = {12, 13};
  db.recordFingerprint(hashes, 1, 10);
  db.recordFingerprint(laterCopy, 2, 20);
  db.removeSegment(1);  // lazy: segment 1 still holds the inline seats
  ASSERT_EQ(db.deadSegmentCount(), 1u);
  const std::vector<std::pair<SegmentId, text::Hash>> want = {{2, 12},
                                                                 {2, 13}};
  EXPECT_EQ(ownersBatched(db, hashes), want);
}

TEST(HashDbBatch, RandomSessionsMatchPerHashLoops) {
  // Seeded sessions of overlapping segments: re-observes, equal and
  // out-of-order timestamps, removals on both sides of the compaction
  // threshold and growth through several doublings. After every step the
  // batched store must equal the per-hash one, down to export order and
  // bytes. A segment never removed re-records everything it recorded so
  // far at a later stamp now and then: neither store may change.
  constexpr SegmentId kSegments = 24;
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
        const SegmentId victim = rng.uniform(1, kSegments);
        batched.removeSegment(victim);
        looped.removeSegment(victim);
        removed.insert(victim);
      } else if (const SegmentId again = rng.uniform(1, kSegments);
                 rng.chance(0.15) && removed.count(again) == 0) {
        const std::vector<text::Hash>& held = recorded[again];
        const StoreShape batchedBefore(batched);
        const StoreShape loopedBefore(looped);
        clock += 10;
        batched.recordFingerprint(held, again, clock);
        for (text::Hash h : held) looped.recordObservation(h, again, clock);
        ASSERT_TRUE(StoreShape(batched) == batchedBefore);
        ASSERT_TRUE(StoreShape(looped) == loopedBefore);
      } else {
        const SegmentId segment = rng.uniform(1, kSegments);
        std::size_t n = rng.uniform(0, 120);
        if (rng.chance(0.2)) n = rng.uniform(0, 20);  // around the distances
        std::vector<text::Hash> hashes;
        for (std::size_t i = 0; i < n; ++i) {
          hashes.push_back(rng.chance(0.7) ? rng.pick(pool) : static_cast<text::Hash>(rng.next()));
        }
        if (rng.chance(0.8)) {  // fingerprints are sorted and distinct
          std::sort(hashes.begin(), hashes.end());
          hashes.erase(std::unique(hashes.begin(), hashes.end()),
                       hashes.end());
        }
        util::Timestamp ts = clock;
        if (rng.chance(0.7)) {
          ts = ++clock;
        } else if (rng.chance(0.5)) {
          ts = clock - rng.uniform(1, 50);  // out of order
        }  // else: equal to the previous stamp
        batched.recordFingerprint(hashes, segment, ts);
        for (text::Hash h : hashes) looped.recordObservation(h, segment, ts);
        recorded[segment].insert(recorded[segment].end(), hashes.begin(),
                                 hashes.end());
      }
      if (step % 20 == 19) {
        std::vector<text::Hash> probes(pool.begin(), pool.begin() + 300);
        probes.push_back(static_cast<text::Hash>(rng.next()));  // never stored
        expectSameStore(batched, looped, probes, kSegments);
      }
    }
    EXPECT_GT(batched.distinctHashCount(), 2000u);  // >= 8 doublings from 16
    expectSameStore(batched, looped, pool, kSegments);
  }
}

}  // namespace
}  // namespace bf::flow
