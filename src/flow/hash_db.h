// HashDb — the paper's "DBhash" (S4.3):
//
// "The first data structure (DBhash) stores associations of fingerprint
//  hashes to paragraphs that have been found to contain those hashes along
//  with timestamps."
//
// For every fingerprint hash we keep the history of segments that were
// observed to contain it, ordered by first-seen timestamp. The front of the
// history answers oldestSegmentWith(h) in O(1) amortised, which both the
// authoritative-fingerprint computation and Algorithm 1 rely on.
//
// Storage is an open-addressing hash table (linear probing, power-of-two
// capacity) of 16-byte slots, four per cache line. DBhash only grows
// between removals, so the table is the tracker's memory. Most hashes have
// exactly one owner, seen once, at a small logical-clock stamp: such a
// hash is a compact slot holding its segment and firstSeen inline, and the
// Algorithm-1 candidate loop — one oldestSegmentWith probe per target
// hash — resolves in that slot. Every other hash spills: its slot points
// into a pool of per-hash histories that hold every association with full
// 64-bit stamps, and caches the oldest owner so candidate discovery still
// answers from the slot while that owner is live.
//
// Writes and the candidate loop go through two batch entry points that take
// a whole fingerprint: recordFingerprint (every hash of an observed
// segment) and oldestOwners (Algorithm 1's discovery over a target). Each
// is a software-pipelined loop over the hashes, since every probe is a
// likely cache miss in a table far beyond L2: it prefetches the home slot
// kSlotPrefetchDistance hashes ahead; the record loop also probes the hash
// kHistoryHeaderPrefetchDistance ahead and, if its slot spills, prefetches
// that history's header, then its newest entries
// kHistoryBufferPrefetchDistance ahead. A re-record scans the history
// newest-first: a segment appears at most once per history, so the scan
// finds the same entry, but a re-observed segment usually sits near the
// end. Growth stays a per-insert 70% load check, so the batch leaves the
// table bit-for-bit as the per-hash loop would.
//
// Segment removal is lazy (a dead set consulted by lookups) but bounded:
// once the dead set exceeds a threshold, the store physically compacts the
// dead associations and clears the set, so neither the tombstones nor the
// per-lookup isDead probes accumulate forever.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "flow/ids.h"
#include "util/clock.h"

namespace bf::flow {

class HashDb {
 public:
  /// One observation: `segment` was first seen containing a hash at
  /// `firstSeen` and most recently re-observed at `lastSeen`. Provenance
  /// ordering keys on firstSeen (it never changes retroactively);
  /// retention (evictOlderThan) keys on lastSeen so hot, re-observed
  /// associations survive eviction sweeps.
  struct Association {
    SegmentId segment;
    util::Timestamp firstSeen;
    util::Timestamp lastSeen;
  };

  /// Dead segments tolerated before removeSegment triggers a physical
  /// compaction (see setDeadCompactionThreshold).
  static constexpr std::size_t kDefaultDeadCompactionThreshold = 64;

  /// Records that `segment` contains `hash`, observed at `ts`. Idempotent
  /// per (hash, segment): re-observing keeps the original first-seen
  /// timestamp (provenance ordering never changes retroactively) but
  /// advances the association's lastSeen stamp to max(lastSeen, ts).
  /// Restore paths (snapshot/WAL replay) pass an explicit `lastSeen`;
  /// 0 means "same as ts". A lastSeen below `ts` is raised to `ts`, so
  /// every association keeps lastSeen >= firstSeen. `segment` must not be
  /// kInvalidSegment.
  void recordObservation(std::uint64_t hash, SegmentId segment,
                         util::Timestamp ts, util::Timestamp lastSeen = 0);

  /// recordObservation(h, segment, ts) for every h in `hashes`, in order,
  /// with the probes prefetched ahead of the inserts. The table ends up
  /// exactly as the per-hash loop leaves it (capacity, slot order,
  /// histories, timestamps).
  void recordFingerprint(std::span<const std::uint64_t> hashes,
                         SegmentId segment, util::Timestamp ts);

  /// For every h in `hashes` (in order) that has a live owner, appends
  /// (oldestSegmentWith(h), h) to `claims`; the slot probes are prefetched
  /// ahead. This is Algorithm 1's candidate discovery over a target.
  void oldestOwners(
      std::span<const std::uint64_t> hashes,
      std::vector<std::pair<SegmentId, std::uint64_t>>& claims) const;

  /// The oldest live segment associated with `hash`, or nullopt.
  /// This is "oldestParagraphWith(h, DBhash)" from Algorithm 1.
  [[nodiscard]] std::optional<SegmentId> oldestSegmentWith(
      std::uint64_t hash) const;

  /// All live segments associated with `hash`, oldest first.
  [[nodiscard]] std::vector<SegmentId> segmentsWith(std::uint64_t hash) const;

  /// First-seen timestamp of (hash, segment), or nullopt if unrecorded.
  [[nodiscard]] std::optional<util::Timestamp> firstSeen(
      std::uint64_t hash, SegmentId segment) const;

  /// Most recent observation timestamp of (hash, segment), or nullopt.
  [[nodiscard]] std::optional<util::Timestamp> lastSeen(
      std::uint64_t hash, SegmentId segment) const;

  /// Marks a segment dead: its associations are skipped by lookups and
  /// physically removed by the next compaction (automatic once the dead
  /// set exceeds the threshold). Increments the removal generation (used
  /// by callers to invalidate authoritative-fingerprint caches).
  void removeSegment(SegmentId segment);

  /// Physically removes every association of a dead segment and clears
  /// the dead set. Called automatically by removeSegment past the
  /// threshold; public for tests and explicit maintenance. Returns the
  /// number of associations dropped.
  std::size_t compactDead();

  /// Dead segments not yet physically purged.
  [[nodiscard]] std::size_t deadSegmentCount() const noexcept {
    return dead_.size();
  }

  /// Overrides the dead-segment compaction threshold (0 compacts on every
  /// removal). Tests use small values; production keeps the default, which
  /// amortises compaction cost over many removals.
  void setDeadCompactionThreshold(std::size_t threshold) noexcept {
    deadCompactionThreshold_ = threshold;
  }

  /// Drops all associations whose lastSeen < cutoff (and purges dead
  /// ones). Implements the paper's "periodic removal of old fingerprints"
  /// recommendation (S4.4). Retention keys on the most recent observation,
  /// not firstSeen: a segment first seen long ago but re-observed seconds
  /// ago is still hot and must survive the sweep. Returns the number of
  /// associations dropped.
  std::size_t evictOlderThan(util::Timestamp cutoff);

  /// Number of distinct hashes with at least one (possibly dead)
  /// association. Benches use this to size the store (paper Fig. 13).
  [[nodiscard]] std::size_t distinctHashCount() const noexcept {
    return occupied_;
  }

  /// Number of physically stored associations (memory accounting in
  /// benches). Associations of removed segments are counted until the
  /// next compaction purges them.
  [[nodiscard]] std::size_t associationCount() const noexcept {
    return storedAssociations_;
  }

  /// Monotone counter bumped by removeSegment/evictOlderThan. Callers cache
  /// authoritative fingerprints keyed by this generation.
  [[nodiscard]] std::uint64_t removalGeneration() const noexcept {
    return removalGeneration_;
  }

  /// Applies fn(hash, segment, firstSeen, lastSeen) to every LIVE
  /// association, in per-hash oldest-first order. Used by snapshot export.
  template <typename Fn>
  void forEachAssociation(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (!slot.used()) continue;
      if (!slot.spilled()) {
        if (!isDead(slot.owner)) {
          fn(slot.hash, slot.owner, slot.word, slot.word);
        }
        continue;
      }
      for (const Association& a : histories_[slot.historyIndex()]) {
        if (!isDead(a.segment)) {
          fn(slot.hash, a.segment, a.firstSeen, a.lastSeen);
        }
      }
    }
  }

 private:
  /// One open-addressing slot. The slot is the hot probe target of every
  /// query (one per target hash), so its size IS the read path's cache
  /// footprint and, at ~50% load after each doubling, most of the
  /// tracker's memory: 16 bytes, four slots per cache line.
  ///
  /// `owner == kInvalidSegment` marks an empty slot (slots are never
  /// individually vacated; only full rebuilds reclaim them). A used slot
  /// takes one of two shapes, told apart by the high bit of `word`:
  ///  - compact (bit clear): the hash's only association, with
  ///    lastSeen == firstSeen. `owner` is the segment and `word` its
  ///    firstSeen. It requires firstSeen < 2^31 and a segment below
  ///    kOwnerInHistory; the tracker's logical clock and segment counter
  ///    stay far below both in practice.
  ///  - spilled (bit set): the low 31 bits index histories_, which holds
  ///    every association of the hash, oldest first, with full 64-bit
  ///    stamps. `owner` caches the oldest association's segment, or
  ///    kOwnerInHistory when that id does not fit in 32 bits.
  /// A compact slot spills on its second association, on a re-observation
  /// that advances lastSeen, or when a stamp or id does not fit. Spilled
  /// slots return to compact only through a rebuild (compaction/eviction).
  struct Slot {
    static constexpr std::uint32_t kSpilled = 0x80000000u;

    std::uint64_t hash = 0;
    std::uint32_t owner = 0;
    std::uint32_t word = 0;

    [[nodiscard]] bool used() const noexcept {
      return owner != kInvalidSegment;
    }
    [[nodiscard]] bool spilled() const noexcept {
      return (word & kSpilled) != 0;
    }
    [[nodiscard]] std::uint32_t historyIndex() const noexcept {
      return word & ~kSpilled;
    }
  };
  static_assert(sizeof(Slot) == 16,
                "Slot is the per-query cache footprint and the bulk of the "
                "tracker's memory; keep it at four slots per cache line");

  /// Spilled-slot `owner` when the oldest segment id needs the history.
  static constexpr std::uint32_t kOwnerInHistory = 0xffffffffu;

  /// True when `a`, as a hash's only association, fits a compact slot.
  [[nodiscard]] static bool fitsCompact(const Association& a) noexcept {
    return a.segment < kOwnerInHistory && a.firstSeen < Slot::kSpilled &&
           a.lastSeen == a.firstSeen;
  }

  /// The `owner` a spilled slot caches for its oldest segment.
  [[nodiscard]] static std::uint32_t cachedOwner(SegmentId oldest) noexcept {
    return oldest < kOwnerInHistory ? static_cast<std::uint32_t>(oldest)
                                    : kOwnerInHistory;
  }

  /// How far ahead of the insert/lookup the batch loops prefetch: the
  /// home slot first, then (record only) the history header of a spilled
  /// slot that already holds the hash, then that history's newest entries.
  static constexpr std::size_t kSlotPrefetchDistance = 16;
  static constexpr std::size_t kHistoryHeaderPrefetchDistance = 8;
  static constexpr std::size_t kHistoryBufferPrefetchDistance = 4;

  [[nodiscard]] bool isDead(SegmentId s) const {
    return !dead_.empty() && dead_.count(s) != 0;
  }

  /// Index of `hash`'s home slot (where its probe starts).
  [[nodiscard]] std::size_t homeSlot(std::uint64_t hash) const noexcept;

  /// Prefetches `hash`'s home slot. No-op on an empty table.
  void prefetchSlot(std::uint64_t hash) const noexcept;

  /// The oldest live association of an occupied slot, or nullopt.
  [[nodiscard]] std::optional<SegmentId> oldestLive(const Slot& s) const;

  /// The association of live `segment` with `hash`, or nullopt.
  [[nodiscard]] std::optional<Association> find(std::uint64_t hash,
                                                SegmentId segment) const;

  /// Turns `s` into a spilled slot over `history` (non-empty, oldest
  /// first), appended to histories_.
  void spill(Slot& s, std::vector<Association>&& history);

  /// Index of `hash`'s slot, or of the empty slot where it would insert.
  /// Requires a non-empty table.
  [[nodiscard]] std::size_t probe(std::uint64_t hash) const noexcept;

  /// Ensures capacity for one more distinct hash (grows + rehashes at
  /// ~70% load).
  void reserveForInsert();

  /// Rebuilds the table keeping only associations for which `keep` returns
  /// true. Returns the number of associations dropped.
  template <typename Keep>
  std::size_t rebuildFiltered(Keep&& keep);

  std::vector<Slot> slots_;  // power-of-two size; empty until first insert
  std::size_t mask_ = 0;     // slots_.size() - 1
  std::size_t occupied_ = 0;
  std::vector<std::vector<Association>> histories_;  // of spilled slots
  std::unordered_set<SegmentId> dead_;
  std::size_t deadCompactionThreshold_ = kDefaultDeadCompactionThreshold;
  std::size_t storedAssociations_ = 0;
  std::uint64_t removalGeneration_ = 0;
};

}  // namespace bf::flow
