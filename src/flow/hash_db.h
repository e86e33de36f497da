// HashDb — the paper's "DBhash" (S4.3):
//
// "The first data structure (DBhash) stores associations of fingerprint
//  hashes to paragraphs that have been found to contain those hashes along
//  with timestamps."
//
// For every fingerprint hash we keep, per SegmentKind, the history of
// segments that were observed to contain it, ordered by first-seen
// timestamp. The front of a history answers oldestSegmentWith(kind, h) in
// O(1) amortised, which both the authoritative-fingerprint computation and
// Algorithm 1 rely on. That is all an association holds: the segment and
// the stamp it was first seen at. Re-observing a held (hash, segment)
// changes nothing. Authority is per kind (DESIGN.md §5), but almost every
// paragraph hash is also a document hash, so both kinds share one index:
// a hash has one slot, and the slot holds a head per kind.
//
// Storage is an open-addressing hash table (linear probing, power-of-two
// capacity) of 20-byte slots. DBhash only grows between removals, so the
// table is the tracker's memory. Most hashes have exactly one owner per
// kind, at a small logical-clock stamp: such a head is compact, holding
// its segment and firstSeen inline, and the Algorithm-1 candidate loop —
// one oldestSegmentWith probe per target hash — resolves in the slot.
// Every other head spills: it points at a run header in the history pool,
// and caches the oldest owner so candidate discovery still answers from
// the slot while that owner is live. The pool (HistoryPool) holds every
// association of a spilled head, oldest first, in 8-byte entries.
//
// Writes and the candidate loop go through two batch entry points that take
// a whole fingerprint: recordFingerprint (every hash of an observed
// segment) and oldestOwners (Algorithm 1's discovery over a target). Each
// is a software-pipelined loop over the hashes (every probe is a likely
// cache miss in a table far beyond L2): it prefetches the home slot
// kSlotPrefetchDistance hashes ahead; the record loop also probes the hash
// kRunHeaderPrefetchDistance ahead and, if its head spills, prefetches
// that run's header, then its newest entry kRunEntryPrefetchDistance
// ahead. The slot that the header-stage probe reached is kept, and the
// insert continues linear probing from it, so each recorded hash is
// probed once. The table grows at 70% load, checked only when a hash is
// new to both kinds, so growth lands on the same insert as in the
// per-hash loop, a call that adds no hash leaves the table as it was, and
// the batch leaves the table bit-for-bit as the per-hash loop would.
// Growth re-places every slot: the hashes whose probe already ran start
// over from their home slots.
//
// The table is one malloc'd block (an all-zero slot is empty) and never
// holds two copies of itself: growth reallocs it to twice its size and
// compaction keeps it; both then re-place the old slots one cluster (a
// maximal run of used slots) at a time, copying it out, clearing it and
// probing back what survives. What survives of a cluster fits in its own
// span, or after a doubling in the span and its image n slots up, so a
// re-placement never meets a cluster still waiting (DESIGN.md §10 has the
// argument).
//
// A segment appears at most once per history, so an insert into a spilled
// head first scans its run newest-first for the segment. Common n-grams
// have histories of thousands of owners, so the scan is bounded for a
// segment's first record: ids of both kinds come from one increasing
// counter, and a call whose segment is above every id recorded so far can
// only meet entries it added itself, all stamped with its `ts`. Histories
// are sorted by firstSeen, so that scan stops at the first entry older
// than `ts`. Any other call (a re-observation, a restore of a lower id)
// scans the whole run.
//
// Segment removal is lazy (one dead set, consulted by lookups) but
// bounded: past a threshold, the store physically compacts the dead
// associations and clears the set. The removal generation is per kind, so
// removing a paragraph leaves cached document answers valid.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "flow/ids.h"
#include "text/fingerprint.h"
#include "util/clock.h"

namespace bf::flow {

class HashDb {
 public:
  HashDb() = default;
  ~HashDb();
  HashDb(const HashDb&) = delete;
  HashDb& operator=(const HashDb&) = delete;

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
  void recordObservation(SegmentKind kind, text::Hash hash, SegmentId segment,
                         util::Timestamp ts);

  /// recordObservation(kind, h, segment, ts) for every h in `hashes`, in
  /// order, with the probes prefetched ahead of the inserts. The table ends
  /// up exactly as the per-hash loop leaves it (capacity, slot order,
  /// histories, timestamps).
  void recordFingerprint(SegmentKind kind, std::span<const text::Hash> hashes,
                         SegmentId segment, util::Timestamp ts);

  /// For every h in `hashes` (in order) that has a live owner, appends
  /// (oldestSegmentWith(kind, h), h) to `claims`; the slot probes are
  /// prefetched ahead. This is Algorithm 1's candidate discovery.
  void oldestOwners(
      SegmentKind kind, std::span<const text::Hash> hashes,
      std::vector<std::pair<SegmentId, text::Hash>>& claims) const;

  /// The oldest live segment associated with `hash`, or nullopt.
  /// This is "oldestParagraphWith(h, DBhash)" from Algorithm 1.
  [[nodiscard]] std::optional<SegmentId> oldestSegmentWith(
      SegmentKind kind, text::Hash hash) const;

  /// All live segments associated with `hash`, oldest first.
  [[nodiscard]] std::vector<SegmentId> segmentsWith(SegmentKind kind,
                                                    text::Hash hash) const;

  /// First-seen timestamp of (hash, segment), or nullopt if unrecorded.
  [[nodiscard]] std::optional<util::Timestamp> firstSeen(
      SegmentKind kind, text::Hash hash, SegmentId segment) const;

  /// Marks a segment dead: its associations are skipped by lookups and
  /// physically removed by the next compaction (automatic once the dead
  /// set exceeds the threshold). Increments the removal generation of
  /// `kind` only (callers key cached answers by it).
  void removeSegment(SegmentKind kind, SegmentId segment);

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
  [[nodiscard]] std::size_t distinctHashCount(SegmentKind kind) const noexcept {
    return perKind_[kindIndex(kind)].distinct;
  }

  /// Number of physically stored associations (memory accounting in
  /// benches). Associations of removed segments are counted until the
  /// next compaction purges them.
  [[nodiscard]] std::size_t associationCount(SegmentKind kind) const noexcept {
    return perKind_[kindIndex(kind)].associations;
  }

  /// Bytes the store holds: slot table, run headers, history-pool blocks
  /// and escaped wide ids/stamps (allocated capacity, not just what is in
  /// use; the dead set is not counted). O(1).
  [[nodiscard]] std::size_t memoryBytes() const noexcept;

  /// Heads of either kind that spilled into the history pool.
  [[nodiscard]] std::size_t spilledHashCount() const noexcept {
    return pool_.runs.size();
  }

  /// 512 KiB blocks the history pool holds (a run longer than one block
  /// counts every block it spans).
  [[nodiscard]] std::size_t poolBlockCount() const noexcept {
    return pool_.blocks.size();
  }

  /// Monotone counter bumped by removeSegment. Callers cache
  /// authoritative fingerprints keyed by this generation.
  [[nodiscard]] std::uint64_t removalGeneration(SegmentKind k) const noexcept {
    return perKind_[kindIndex(k)].removalGeneration;
  }

  /// Applies fn(hash, segment, firstSeen) to every LIVE association, in
  /// per-hash oldest-first order. Used by snapshot export.
  template <typename Fn>
  void forEachAssociation(SegmentKind kind, Fn&& fn) const {
    for (const Slot& slot : slots_) {
      const Head& head = slot.heads[kindIndex(kind)];
      if (!head.used()) continue;
      forEachIn(pool_, head, [&](const Association& a) {
        if (!isDead(a.segment)) fn(slot.hash, a.segment, a.firstSeen);
      });
    }
  }

 private:
  /// One kind's associations with a slot's hash. `owner == kInvalidSegment`
  /// marks an absent head. A present head takes one of two shapes, told
  /// apart by the high bit of `word`:
  ///  - compact (bit clear): the kind's only association. `owner` is the
  ///    segment and `word` its firstSeen. It requires firstSeen < 2^31 and
  ///    a segment below kOwnerInHistory; the tracker's logical clock and
  ///    segment counter stay far below both in practice.
  ///  - spilled (bit set): the low 31 bits index the pool's run headers;
  ///    the run holds every association of the kind, oldest first, with
  ///    exact stamps. `owner` caches the oldest association's segment, or
  ///    kOwnerInHistory when that id does not fit in 32 bits.
  /// A compact head spills on its second association, or when a stamp or
  /// id does not fit. Spilled heads return to compact only through a
  /// compaction's rebuild.
  struct Head {
    static constexpr std::uint32_t kSpilled = 0x80000000u;

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

  /// One open-addressing slot: a hash and its head per SegmentKind, used
  /// while either head is. Its size is the read path's cache footprint
  /// and most of the tracker's memory; only growth and compaction vacate
  /// slots. All zero is empty (kInvalidSegment is 0), so the table is a
  /// plain block that realloc can move.
  struct Slot {
    text::Hash hash = 0;
    std::array<Head, 2> heads{};

    [[nodiscard]] bool used() const noexcept {
      return heads[0].used() || heads[1].used();
    }
  };
  static_assert(sizeof(Slot) == 20, "one hash and two 8-byte heads");
  static_assert(std::is_trivially_copyable_v<Slot> && kInvalidSegment == 0);

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

  /// A spilled head's history: `size` entries from pool index `begin`, in
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

  /// Every spilled history of both kinds: run headers in a flat vector and
  /// entries in fixed blocks of kBlockEntries that never move. A pool
  /// index i lives at blocks[i / kBlockEntries][i % kBlockEntries]. A run
  /// has power-of-two capacity; one of at most a block is carved from the
  /// current block, a longer one is a single allocation that takes
  /// consecutive block-table entries, so a run's entries are always
  /// contiguous. A run that outgrows its capacity moves to twice the space
  /// and frees the old one onto the free list of its capacity class; the
  /// list's link is stored in the freed space's first entry. Blocks are
  /// small and fixed so that later pools reuse the heap space a
  /// compaction frees with the old pool, which ever-larger blocks could
  /// not.
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

  struct KindCounts {
    std::size_t distinct = 0;      // heads in use
    std::size_t associations = 0;  // stored, dead ones included
    std::uint64_t removalGeneration = 0;
  };

  /// Spilled-head `owner` when the oldest segment id needs the history.
  static constexpr std::uint32_t kOwnerInHistory = 0xffffffffu;

  /// True when `a`, as a kind's only association, fits a compact head.
  [[nodiscard]] static bool fitsCompact(const Association& a) noexcept {
    return a.segment < kOwnerInHistory && a.firstSeen < Head::kSpilled;
  }

  /// The `owner` a spilled head caches for its oldest segment.
  [[nodiscard]] static std::uint32_t cachedOwner(SegmentId oldest) noexcept {
    return oldest < kOwnerInHistory ? static_cast<std::uint32_t>(oldest)
                                    : kOwnerInHistory;
  }

  /// How far ahead of the insert/lookup the batch loops prefetch: the
  /// home slot first, then (record only) the run header of a spilled head
  /// that already holds the hash, then that run's newest entry.
  static constexpr std::size_t kSlotPrefetchDistance = 16;
  static constexpr std::size_t kRunHeaderPrefetchDistance = 8;
  static constexpr std::size_t kRunEntryPrefetchDistance = 4;

  /// deadBits_ filters the dead-set probe that every claim and every
  /// compacted association makes (std::unordered_set divides per probe).
  [[nodiscard]] bool isDead(SegmentId s) const {
    return ((deadBits_[(s >> 6) & 63] >> (s & 63)) & 1) != 0 &&
           dead_.count(s) != 0;
  }

  /// Index of `hash`'s home slot (where its probe starts).
  [[nodiscard]] std::size_t homeSlot(text::Hash hash) const noexcept;

  /// Prefetches `hash`'s home slot (a null address on an empty table,
  /// which a prefetch ignores).
  void prefetchSlot(text::Hash hash) const noexcept;

  /// The oldest live association of a present head, or nullopt.
  [[nodiscard]] std::optional<SegmentId> oldestLive(const Head& h) const;

  /// Applies fn(association) to every association of present head `h`,
  /// oldest first; a spilled head's are read from `pool`.
  template <typename Fn>
  static void forEachIn(const HistoryPool& pool, const Head& h, Fn&& fn) {
    if (!h.spilled()) {
      fn(Association{h.owner, h.word});
      return;
    }
    for (const Entry& e : pool.entries(h.runIndex())) fn(pool.decode(e));
  }

  /// `hash`'s head of kind `kind`, or nullptr when that head is absent.
  [[nodiscard]] const Head* findHead(SegmentKind kind,
                                     text::Hash hash) const noexcept;

  /// Makes `h` hold `history` (non-empty, oldest first): compact when
  /// that fits, else spilled over a new run of the pool.
  void assign(Head& h, std::span<const Association> history);

  /// Starts a record call: sets scanFloor_ to `ts` when `segment` was
  /// never recorded before (above maxRecorded_), else to 0, then raises
  /// maxRecorded_.
  void beginRecord(SegmentId segment, util::Timestamp ts) noexcept;

  /// recordObservation on a non-empty table, probing from slot `from`
  /// (the home slot, or a slot the probe reaches later). Returns true when
  /// it grew the table, which re-places every slot.
  bool recordFrom(SegmentKind kind, text::Hash hash, const Association& assoc,
                  std::size_t from);

  /// Index of `hash`'s slot, or of the empty slot where it would insert.
  /// Requires a non-empty table.
  [[nodiscard]] std::size_t probe(text::Hash hash) const noexcept;

  /// probe() continued from slot `idx`, which lies on `hash`'s probe path
  /// at or before the slot probe() returns.
  [[nodiscard]] std::size_t probeFrom(text::Hash hash,
                                      std::size_t idx) const noexcept;

  /// Moves every slot into a new zeroed block of `capacity` (a power of
  /// two) slots and frees the old one: the first allocation, and the
  /// shrink after a compaction.
  void rebuild(std::size_t capacity);

  /// Doubles the table in place.
  void grow();

  /// Re-places the used slots among the first `oldSize` (the table before
  /// a grow, or all of it) under mask_, one cluster at a time, as the
  /// header describes. keep(slot) may rewrite the slot and returns whether
  /// it is still used; a dropped slot is left empty. Recounts occupied_.
  template <typename Keep>
  void replaceClusters(std::size_t oldSize, Keep keep);

  std::span<Slot> slots_;  // malloc'd; power of two, empty until 1st insert
  std::size_t mask_ = 0;   // slots_.size() - 1
  std::size_t occupied_ = 0;  // used slots
  std::array<KindCounts, 2> perKind_{};  // indexed by SegmentKind
  HistoryPool pool_;  // histories of spilled heads
  std::unordered_set<SegmentId> dead_;
  std::array<std::uint64_t, 64> deadBits_{};  // dead_'s ids by low 12 bits
  std::size_t deadCompactionThreshold_ = kDefaultDeadCompactionThreshold;
  SegmentId maxRecorded_ = kInvalidSegment;  // largest id any insert recorded
  util::Timestamp scanFloor_ = 0;  // run scans of this record call stop below
};

}  // namespace bf::flow
