// HashDb — the paper's "DBhash" (S4.3):
//
// "The first data structure (DBhash) stores associations of fingerprint
//  hashes to paragraphs that have been found to contain those hashes along
//  with timestamps."
//
// For every fingerprint hash we keep the history of segments that were
// observed to contain it, ordered by first-seen timestamp. The front of the
// history answers oldestSegmentWith(h) in O(1) amortised, which both the
// authoritative-fingerprint computation and Algorithm 1 rely on. That is
// all an association holds: the segment and the stamp it was first seen
// at. Re-observing a held (hash, segment) changes nothing.
//
// Storage is an open-addressing hash table (linear probing, power-of-two
// capacity) of 16-byte slots, four per cache line. DBhash only grows
// between removals, so the table is the tracker's memory. Most hashes have
// exactly one owner, at a small logical-clock stamp: such a hash is a
// compact slot holding its segment and firstSeen inline, and the
// Algorithm-1 candidate loop — one oldestSegmentWith probe per target
// hash — resolves in that slot. Every other hash spills: its slot points
// at a run header in the table's history pool, and caches the oldest owner
// so candidate discovery still answers from the slot while that owner is
// live. The pool holds every association of a spilled hash, oldest first,
// as 8-byte entries in fixed 512 KiB blocks (see HistoryPool).
//
// Writes and the candidate loop go through two batch entry points that take
// a whole fingerprint: recordFingerprint (every hash of an observed
// segment) and oldestOwners (Algorithm 1's discovery over a target). Each
// is a software-pipelined loop over the hashes, since every probe is a
// likely cache miss in a table far beyond L2: it prefetches the home slot
// kSlotPrefetchDistance hashes ahead; the record loop also probes the hash
// kRunHeaderPrefetchDistance ahead and, if its slot spills, prefetches
// that run's header, then its newest entry kRunEntryPrefetchDistance
// ahead. The slot that the header-stage probe reached is kept, and the
// insert continues linear probing from it, so each recorded hash is
// probed once. The table grows at 70% load, checked only when a hash is
// new, so growth lands on the same insert as in the per-hash loop, a call
// that adds no hash leaves the table as it was, and the batch leaves the
// table bit-for-bit as the per-hash loop would. Growth moves every slot:
// the hashes whose probe already ran start over from their home slots.
//
// A segment appears at most once per history, so an insert into a spilled
// hash first scans its run newest-first for the segment (a re-observed
// segment usually sits near the end). Common n-grams have histories of
// thousands of owners, so the scan is bounded for a segment's first
// record: ids come from an increasing counter, and a call whose segment
// is above every id recorded so far can only meet entries it added
// itself, all stamped with its `ts`. Histories are sorted by firstSeen,
// so that scan stops at the first entry older than `ts`. Any other call
// (a re-observation, a restore of a lower id) scans the whole run.
//
// Segment removal is lazy (a dead set consulted by lookups) but bounded:
// once the dead set exceeds a threshold, the store physically compacts the
// dead associations and clears the set, so neither the tombstones nor the
// per-lookup isDead probes accumulate forever.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "flow/ids.h"
#include "text/fingerprint.h"
#include "util/clock.h"

namespace bf::flow {

class HashDb {
 public:
  /// One observation: `segment` was first seen containing a hash at
  /// `firstSeen`. Provenance ordering keys on it, and it never changes
  /// retroactively.
  struct Association {
    SegmentId segment;
    util::Timestamp firstSeen;
  };

  /// Dead segments tolerated before removeSegment triggers a physical
  /// compaction (see setDeadCompactionThreshold).
  static constexpr std::size_t kDefaultDeadCompactionThreshold = 64;

  /// Records that `segment` contains `hash`, observed at `ts`. Idempotent
  /// per (hash, segment): re-observing keeps the original first-seen
  /// timestamp and leaves the store as it was. `segment` must not be
  /// kInvalidSegment.
  void recordObservation(text::Hash hash, SegmentId segment,
                         util::Timestamp ts);

  /// recordObservation(h, segment, ts) for every h in `hashes`, in order,
  /// with the probes prefetched ahead of the inserts. The table ends up
  /// exactly as the per-hash loop leaves it (capacity, slot order,
  /// histories, timestamps).
  void recordFingerprint(std::span<const text::Hash> hashes,
                         SegmentId segment, util::Timestamp ts);

  /// For every h in `hashes` (in order) that has a live owner, appends
  /// (oldestSegmentWith(h), h) to `claims`; the slot probes are prefetched
  /// ahead. This is Algorithm 1's candidate discovery over a target.
  void oldestOwners(
      std::span<const text::Hash> hashes,
      std::vector<std::pair<SegmentId, text::Hash>>& claims) const;

  /// The oldest live segment associated with `hash`, or nullopt.
  /// This is "oldestParagraphWith(h, DBhash)" from Algorithm 1.
  [[nodiscard]] std::optional<SegmentId> oldestSegmentWith(
      text::Hash hash) const;

  /// All live segments associated with `hash`, oldest first.
  [[nodiscard]] std::vector<SegmentId> segmentsWith(text::Hash hash) const;

  /// First-seen timestamp of (hash, segment), or nullopt if unrecorded.
  [[nodiscard]] std::optional<util::Timestamp> firstSeen(
      text::Hash hash, SegmentId segment) const;

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

  /// Bytes the store holds: slot table, run headers, history-pool blocks
  /// and escaped wide ids/stamps (allocated capacity, not just what is in
  /// use; the dead set is not counted). O(1).
  [[nodiscard]] std::size_t memoryBytes() const noexcept;

  /// Hashes whose slot spilled its associations into the history pool.
  [[nodiscard]] std::size_t spilledHashCount() const noexcept {
    return pool_.runs.size();
  }

  /// 512 KiB blocks the history pool holds (a run longer than one block
  /// counts every block it spans).
  [[nodiscard]] std::size_t poolBlockCount() const noexcept {
    return pool_.blocks.size();
  }

  /// Monotone counter bumped by removeSegment. Callers cache authoritative
  /// fingerprints keyed by this generation.
  [[nodiscard]] std::uint64_t removalGeneration() const noexcept {
    return removalGeneration_;
  }

  /// Applies fn(hash, segment, firstSeen) to every LIVE association, in
  /// per-hash oldest-first order. Used by snapshot export.
  template <typename Fn>
  void forEachAssociation(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (!slot.used()) continue;
      if (!slot.spilled()) {
        if (!isDead(slot.owner)) fn(slot.hash, slot.owner, slot.word);
        continue;
      }
      for (const Entry& e : pool_.entries(slot.runIndex())) {
        const Association a = pool_.decode(e);
        if (!isDead(a.segment)) fn(slot.hash, a.segment, a.firstSeen);
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
  ///  - compact (bit clear): the hash's only association. `owner` is the
  ///    segment and `word` its firstSeen. It requires firstSeen < 2^31 and a segment below
  ///    kOwnerInHistory; the tracker's logical clock and segment counter
  ///    stay far below both in practice.
  ///  - spilled (bit set): the low 31 bits index the pool's run headers;
  ///    the run holds every association of the hash, oldest first, with
  ///    exact stamps. `owner` caches the oldest association's segment, or
  ///    kOwnerInHistory when that id does not fit in 32 bits.
  /// A compact slot spills on its second association, or when a stamp or
  /// id does not fit. Spilled slots return to compact only through a
  /// compaction's rebuild.
  struct Slot {
    static constexpr std::uint32_t kSpilled = 0x80000000u;

    text::Hash hash = 0;
    /// Unused. Keeps the 16-byte layout until a 12-byte slot and a split
    /// hash array have been measured against it.
    std::uint32_t spare = 0;
    std::uint32_t owner = 0;
    std::uint32_t word = 0;

    [[nodiscard]] bool used() const noexcept {
      return owner != kInvalidSegment;
    }
    [[nodiscard]] bool spilled() const noexcept {
      return (word & kSpilled) != 0;
    }
    [[nodiscard]] std::uint32_t runIndex() const noexcept {
      return word & ~kSpilled;
    }
  };
  static_assert(sizeof(Slot) == 16,
                "Slot is the per-query cache footprint and the bulk of the "
                "tracker's memory; keep it at four slots per cache line");

  /// One association in the history pool. A segment id below kEscaped and
  /// a firstSeen below 2^32 are stored inline; otherwise `segment` is
  /// kEscaped and `firstSeen` indexes the pool's escapes, which hold the
  /// wide pair.
  struct Entry {
    static constexpr std::uint32_t kEscaped = 0xffffffffu;

    std::uint32_t segment;
    std::uint32_t firstSeen;
  };
  static_assert(sizeof(Entry) == 8, "eight history entries per cache line");

  /// A spilled hash's history: `size` entries from pool index `begin`, in
  /// space of capacity std::bit_ceil(size).
  struct Run {
    std::uint32_t begin;
    std::uint32_t size;
  };

  /// The segment and firstSeen of an escaped entry.
  struct Wide {
    SegmentId segment;
    util::Timestamp firstSeen;
  };

  /// Every spilled history of one table: run headers in a flat vector and
  /// entries in fixed blocks of kBlockEntries that never move. A pool
  /// index i lives at blocks[i / kBlockEntries][i % kBlockEntries]. A run
  /// has power-of-two capacity; one of at most a block is carved from the
  /// current block, a longer one is a single allocation that takes
  /// consecutive block-table entries, so a run's entries are always
  /// contiguous. A run that outgrows its capacity moves to twice the space
  /// and frees the old one onto the free list of its capacity class; the
  /// list's link is stored in the freed space's first entry. Blocks are
  /// small and fixed so that they fill the holes freed slot tables leave
  /// in the heap, which ever-larger blocks could not reuse.
  struct HistoryPool {
    static constexpr unsigned kBlockShift = 16;  // 512 KiB of 8-byte entries
    static constexpr std::uint32_t kBlockEntries = 1u << kBlockShift;
    static constexpr std::uint32_t kEndOfList = 0xffffffffu;

    std::vector<Run> runs;
    std::vector<Entry*> blocks;
    std::vector<std::unique_ptr<Entry[]>> chunks;  // owns what blocks point at
    std::vector<Wide> escapes;
    std::array<std::uint32_t, 32> freeHeads = [] {  // by log2(capacity)
      std::array<std::uint32_t, 32> heads{};
      heads.fill(kEndOfList);
      return heads;
    }();
    std::uint32_t bump = 0;     // next free index of the current block
    std::uint32_t bumpEnd = 0;  // end of the current block

    [[nodiscard]] Entry* at(std::uint32_t index) const noexcept {
      return blocks[index >> kBlockShift] + (index & (kBlockEntries - 1));
    }
    [[nodiscard]] std::span<Entry> entries(std::uint32_t run) const noexcept {
      const Run& r = runs[run];
      return {at(r.begin), r.size};
    }
    [[nodiscard]] SegmentId segmentOf(const Entry& e) const noexcept {
      return e.segment != Entry::kEscaped ? e.segment
                                          : escapes[e.firstSeen].segment;
    }
    [[nodiscard]] util::Timestamp firstSeenOf(const Entry& e) const noexcept {
      return e.segment != Entry::kEscaped ? e.firstSeen
                                          : escapes[e.firstSeen].firstSeen;
    }
    [[nodiscard]] Association decode(const Entry& e) const noexcept {
      return {segmentOf(e), firstSeenOf(e)};
    }
    [[nodiscard]] Entry encode(const Association& a);

    /// Appends a run holding `history` (non-empty); returns its index.
    std::uint32_t addRun(std::span<const Association> history);

    /// Inserts `a` at position `pos` of run `run`, moving the run to twice
    /// its capacity when it is full.
    void insert(std::uint32_t run, std::size_t pos, const Association& a);

    /// Index of free space for `capacity` (a power of two) entries.
    std::uint32_t allocate(std::uint32_t capacity);
    /// Returns `capacity` entries at `begin` to their class's free list.
    void release(std::uint32_t begin, std::uint32_t capacity) noexcept;
  };

  /// Spilled-slot `owner` when the oldest segment id needs the history.
  static constexpr std::uint32_t kOwnerInHistory = 0xffffffffu;

  /// True when `a`, as a hash's only association, fits a compact slot.
  [[nodiscard]] static bool fitsCompact(const Association& a) noexcept {
    return a.segment < kOwnerInHistory && a.firstSeen < Slot::kSpilled;
  }

  /// The `owner` a spilled slot caches for its oldest segment.
  [[nodiscard]] static std::uint32_t cachedOwner(SegmentId oldest) noexcept {
    return oldest < kOwnerInHistory ? static_cast<std::uint32_t>(oldest)
                                    : kOwnerInHistory;
  }

  /// How far ahead of the insert/lookup the batch loops prefetch: the
  /// home slot first, then (record only) the run header of a spilled slot
  /// that already holds the hash, then that run's newest entry.
  static constexpr std::size_t kSlotPrefetchDistance = 16;
  static constexpr std::size_t kRunHeaderPrefetchDistance = 8;
  static constexpr std::size_t kRunEntryPrefetchDistance = 4;

  [[nodiscard]] bool isDead(SegmentId s) const {
    return !dead_.empty() && dead_.count(s) != 0;
  }

  /// Index of `hash`'s home slot (where its probe starts).
  [[nodiscard]] std::size_t homeSlot(text::Hash hash) const noexcept;

  /// Prefetches `hash`'s home slot. No-op on an empty table.
  void prefetchSlot(text::Hash hash) const noexcept;

  /// The oldest live association of an occupied slot, or nullopt.
  [[nodiscard]] std::optional<SegmentId> oldestLive(const Slot& s) const;

  /// The association of live `segment` with `hash`, or nullopt.
  [[nodiscard]] std::optional<Association> find(text::Hash hash,
                                                SegmentId segment) const;

  /// Turns `s` into a spilled slot over `history` (non-empty, oldest
  /// first), a new run of the pool.
  void spill(Slot& s, std::span<const Association> history);

  /// Starts a record call: sets scanFloor_ to `ts` when `segment` was
  /// never recorded before (above maxRecorded_), else to 0, then raises
  /// maxRecorded_.
  void beginRecord(SegmentId segment, util::Timestamp ts) noexcept;

  /// recordObservation on a non-empty table, probing from slot `from`
  /// (the home slot, or a slot the probe reaches later). Returns true when
  /// it grew the table, which moves every slot.
  bool recordFrom(text::Hash hash, const Association& assoc,
                  std::size_t from);

  /// Index of `hash`'s slot, or of the empty slot where it would insert.
  /// Requires a non-empty table.
  [[nodiscard]] std::size_t probe(text::Hash hash) const noexcept;

  /// probe() continued from slot `idx`, which lies on `hash`'s probe path
  /// at or before the slot probe() returns.
  [[nodiscard]] std::size_t probeFrom(text::Hash hash,
                                      std::size_t idx) const noexcept;

  /// Doubles the table (or allocates the first one) and rehashes.
  void grow();

  std::vector<Slot> slots_;  // power-of-two size; empty until first insert
  std::size_t mask_ = 0;     // slots_.size() - 1
  std::size_t occupied_ = 0;
  HistoryPool pool_;  // histories of spilled slots
  std::unordered_set<SegmentId> dead_;
  std::size_t deadCompactionThreshold_ = kDefaultDeadCompactionThreshold;
  std::size_t storedAssociations_ = 0;
  std::uint64_t removalGeneration_ = 0;
  SegmentId maxRecorded_ = kInvalidSegment;  // largest id any insert recorded
  util::Timestamp scanFloor_ = 0;  // run scans of this record call stop below
};

}  // namespace bf::flow
