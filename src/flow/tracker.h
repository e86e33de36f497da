// FlowTracker — imprecise data flow tracking facade (paper S4).
//
// Owns the two stores of S4.3 (HashDb = "DBhash", SegmentDb = "DBpar"),
// fingerprints observed text, and answers the information disclosure
// question: "what is the set of the original sources s in db that t
// discloses significant information from currently?" via Algorithm 1.
//
// Performance behaviour mirrors the paper (S6.2):
//  - observing an edit re-fingerprints only the edited segment;
//  - if the fingerprint is unchanged (the common case for one keystroke)
//    the previous disclosure answer is served from a per-segment cache;
//  - candidate sources are discovered only through shared hashes, so cost
//    is linear in the number of segments sharing at least one hash.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "flow/disclosure.h"
#include "flow/hash_db.h"
#include "flow/ids.h"
#include "flow/segment_db.h"
#include "obs/metrics.h"
#include "sec/sensitive.h"
#include "text/winnower.h"
#include "util/clock.h"
#include "util/left_right.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bf::flow {

class WriteAheadLog;

/// Tracker configuration. Fingerprint defaults follow the paper's
/// evaluation setup (S6.1): 32-bit hashes, 15-char n-grams, 30-char
/// windows, T_par = T_doc = 0.5.
struct TrackerConfig {
  text::FingerprintConfig fingerprint;
  double defaultParagraphThreshold = 0.5;
  double defaultDocumentThreshold = 0.5;
  /// Skip sources living in the same document as the queried segment.
  bool excludeSameDocument = true;
  /// Use authoritative fingerprints (S4.3). Off only for ablation benches.
  bool useAuthoritative = true;
  /// Reuse the previous answer when a segment's fingerprint is unchanged.
  bool enableCache = true;
};

/// One disclosing source found by a query.
struct DisclosureHit {
  SegmentId source = kInvalidSegment;
  SegmentKind kind = SegmentKind::kParagraph;
  std::string sourceName;
  std::string sourceDocument;
  std::string sourceService;
  /// D(source, target) in [0, 1].
  double score = 0.0;
  /// |F_auth(source) ∩ F(target)|.
  std::size_t overlap = 0;
  /// |F(source)|.
  std::size_t sourceFingerprintSize = 0;
  /// The source's threshold that `score` met.
  double threshold = 0.0;
};

/// Point-in-time view of this tracker's counters, for tests and benches.
/// The live counters are atomics (queries run concurrently from the async
/// DecisionEngine worker and direct callers) and are mirrored into the
/// process-wide obs registry as bf_tracker_* metrics.
struct TrackerStats {
  std::uint64_t queries = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t candidatesInspected = 0;
  std::uint64_t fingerprintsComputed = 0;
};

/// Thread safety — left-right replication (util/left_right.h, DESIGN.md
/// §15). The stores live in TWO complete replicas (stores_[2]); a
/// LeftRightControl arbitrates which replica readers see. Queries
/// (disclosedSources, checkText, pairwiseDisclosure, attributeDisclosure,
/// findSegmentWithFingerprint, and sourcesForSegment's
/// unchanged-fingerprint fast path) take NO mutex at all: they register on
/// a striped read indicator (wait-free, never retried) and read the
/// quiescent active replica with plain loads. Mutations serialise on one
/// writer mutex (util::Mutex, rank util::kRankTracker) and apply every
/// change twice — first to the replica no reader can see, then, after the
/// flip-and-drain step, to the other — so readers never observe a store
/// mid-mutation and never block behind a writer.
///
/// Accessors that hand out pointers or references into the stores
/// (segment, segmentByName — hashDb, segmentDb) are only stable while no
/// concurrent mutation runs; callers that keep them across operations must
/// serialise externally (the engine's stateMutex_ provides this on the
/// decision path). Fingerprinting runs OUTSIDE all synchronisation: it is
/// pure CPU on immutable config, so concurrent observers only serialise on
/// store updates, not on hashing.
class FlowTracker {
 public:
  /// `clock` provides observation timestamps; not owned, must outlive the
  /// tracker. The clock is only invoked under the tracker's writer mutex
  /// (through the replay tape), so a non-thread-safe LogicalClock is fine
  /// even with concurrent observers.
  FlowTracker(TrackerConfig config, util::Clock* clock);

  /// Shard constructor (flow/sharded_tracker.h): same tracker, but the
  /// writer mutex takes an explicit lock rank so shard i can use
  /// util::kRankTracker + i — rank-distinct per shard, keeping the lock
  /// hierarchy honest even though shard mutexes are never nested.
  /// `lockName` must outlive the tracker (pass a string literal).
  FlowTracker(TrackerConfig config, util::Clock* clock, int lockRank,
              const char* lockName);

  // ---- Observation (feeding the tracker) ----------------------------------

  /// Creates or updates a segment identified by its unique `name` with the
  /// given text. Fingerprints the text, records new hashes in DBhash, and
  /// stores the fingerprint in DBpar. Returns the segment id.
  /// `text` is raw document content: it enters as sec::SensitiveView and
  /// only its fingerprint (a declassification gate) is ever stored.
  SegmentId observeSegment(SegmentKind kind, std::string_view name,
                           std::string_view document,
                           std::string_view service, sec::SensitiveView text,
                           std::optional<double> threshold = std::nullopt)
      BF_EXCLUDES(mutex_);

  /// Observes a whole document: one document-kind segment named `docName`
  /// plus one paragraph-kind segment "docName#p<i>" per paragraph.
  /// Batched: all fingerprints are computed outside the lock (in parallel
  /// for large documents), then applied under ONE writer section with a
  /// single gauge refresh — the lock is taken once, not N+1 times.
  struct DocumentObservation {
    SegmentId document = kInvalidSegment;
    std::vector<SegmentId> paragraphs;
  };
  DocumentObservation observeDocument(
      std::string_view docName, std::string_view service,
      sec::SensitiveView fullText,
      std::optional<double> paragraphThreshold = std::nullopt,
      std::optional<double> documentThreshold = std::nullopt)
      BF_EXCLUDES(mutex_);

  /// One pre-routed observation applied by a sharded facade
  /// (flow/sharded_tracker.h): the segment id was assigned by the facade
  /// (the same id is fanned out to every shard, so SegmentIds stay in
  /// lockstep across shards) and `fingerprint` holds only the grams whose
  /// hashes route to this shard. Create-or-update semantics mirror
  /// observeSegment: on create the threshold is
  /// overrideThreshold.value_or(createThreshold); on update only an
  /// explicit overrideThreshold changes it.
  struct RoutedObserve {
    SegmentId id = kInvalidSegment;
    SegmentKind kind = SegmentKind::kParagraph;
    std::string_view name;
    std::string_view document;
    std::string_view service;
    const text::Fingerprint* fingerprint = nullptr;
    double createThreshold = 0.5;
    std::optional<double> overrideThreshold;
    TenantId tenant = kDefaultTenant;
  };

  /// Applies a batch of pre-routed observations under ONE writer section
  /// (this shard's mutex only — never another shard's). Used by
  /// ShardedFlowTracker::observeDocument to apply a document's per-shard
  /// bucket with a single lock acquisition.
  void observeRoutedBatch(const std::vector<RoutedObserve>& ops)
      BF_EXCLUDES(mutex_);

  /// Removes a segment (and its hash associations, lazily).
  void removeSegmentByName(std::string_view name) BF_EXCLUDES(mutex_);
  void removeSegment(SegmentId id) BF_EXCLUDES(mutex_);

  /// Updates a segment's disclosure threshold (paper S4.2: authors adjust
  /// T_par/T_doc "according to their requirements and the confidentiality
  /// of the text"). Invalidates cached decisions, since thresholds change
  /// which sources report. Returns false for unknown names.
  bool setSegmentThreshold(std::string_view name, double threshold)
      BF_EXCLUDES(mutex_);

  // ---- Queries (Algorithm 1) ----------------------------------------------

  /// Disclosing sources of kind `sourceKind` for an arbitrary fingerprint.
  /// `self` / `selfDocument` exclude the queried segment (Algorithm 1's
  /// "if p = P then continue") and, if configured, its document.
  /// Lock-free: reads the active replica under a left-right read guard.
  [[nodiscard]] std::vector<DisclosureHit> disclosedSources(
      const text::Fingerprint& target, SegmentKind sourceKind,
      SegmentId self = kInvalidSegment,
      std::string_view selfDocument = {}) const;

  /// Fingerprints `text` and queries paragraph-kind sources without
  /// registering anything — the "would uploading this leak?" path.
  /// Lock-free, like disclosedSources.
  [[nodiscard]] std::vector<DisclosureHit> checkText(
      sec::SensitiveView text, std::string_view excludeDocument = {}) const;

  /// Cached per-segment query: disclosing sources of the segment's current
  /// fingerprint. Serves the cached answer when the fingerprint is
  /// unchanged since the last call — that fast path is a lock-free
  /// left-right read, so concurrent cached queries never serialise and
  /// never wait for writers; only a cache miss takes the writer mutex to
  /// recompute and install the answer in both replicas. Returns a copy of
  /// the hits (the cache entry itself may be invalidated by a concurrent
  /// observation the moment the guard is released).
  [[nodiscard]] std::vector<DisclosureHit> sourcesForSegment(SegmentId id)
      BF_EXCLUDES(mutex_);

  /// Pairwise disclosure score D(source, target) between two registered
  /// segments (used by effectiveness benches). Lock-free read.
  [[nodiscard]] double pairwiseDisclosure(SegmentId source,
                                          SegmentId target) const;

  /// Attribution (paper S4.1): which passages of the SOURCE segment does
  /// `target` disclose? Returns merged [begin, end) byte ranges into the
  /// source's original text, covering every authoritative source hash that
  /// also appears in the target. Empty if either side is unknown/empty.
  /// Lock-free read.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  attributeDisclosure(SegmentId source, const text::Fingerprint& target) const;

  // ---- Partial (per-shard) queries -----------------------------------------
  // Used by ShardedFlowTracker's fan-out/merge: each shard reports raw
  // per-shard overlaps with NO threshold filtering and NO early discard
  // (a shard only sees a partial fingerprint, so per-shard sizes cannot
  // decide disclosure); the facade sums overlaps and total fingerprint
  // sizes across shards and applies thresholds on the totals. All
  // lock-free left-right reads.

  /// Candidate sources of kind `sourceKind` sharing at least one hash with
  /// `target` in THIS shard, with per-shard (authoritative) overlaps.
  /// `hit.score` is left 0 and `hit.sourceFingerprintSize` holds only this
  /// shard's partial size — both are resolved by the facade at merge time.
  /// Hits are filtered to `tenant` (hard cross-tenant isolation: salted
  /// hashes make cross-tenant collisions unlikely; this filter makes them
  /// impossible).
  [[nodiscard]] std::vector<DisclosureHit> partialHits(
      const text::Fingerprint& target, SegmentKind sourceKind, SegmentId self,
      std::string_view selfDocument, TenantId tenant) const;

  /// partialHits against this shard's stored partial fingerprint of
  /// segment `id` (self-excluding, same-document-excluding, tenant taken
  /// from the record). Empty if the segment is unknown in this shard.
  [[nodiscard]] std::vector<DisclosureHit> partialHitsForSegment(
      SegmentId id) const;

  /// Size of this shard's stored partial fingerprint of `id` (0 if
  /// unknown). Facades sum this across shards for |F(source)|.
  [[nodiscard]] std::size_t segmentFingerprintSize(SegmentId id) const;

  /// Per-shard {overlap, |F_shard(source)|} between two registered
  /// segments, honouring useAuthoritative. {0, 0} if either is unknown.
  [[nodiscard]] std::pair<std::size_t, std::size_t> partialPairwise(
      SegmentId source, SegmentId target) const;

  /// Byte positions (ascending) of the source grams, stored in this shard,
  /// that also appear in `target` (with the authority check when
  /// configured). The facade merge-sorts positions from all shards and
  /// coalesces them into ranges.
  [[nodiscard]] std::vector<std::size_t> matchedGramPositions(
      SegmentId source, const text::Fingerprint& target) const;

  /// Copy of a segment record (nullopt if unknown). Unlike segment(), the
  /// copy stays valid after the read guard drops, so sharded facades can
  /// consult metadata without holding anything.
  [[nodiscard]] std::optional<SegmentRecord> segmentCopy(SegmentId id) const;

  /// The registered segment of `document` whose fingerprint has exactly the
  /// same hash set as `fp` (nullopt if none, or if fp is empty). Lets the
  /// upload path recognise "this outgoing text IS that tracked paragraph"
  /// and reuse its label — including user suppressions. Returns a COPY of
  /// the record: a pointer into the store would dangle the moment a
  /// concurrent observation re-applied to this replica. Lock-free read.
  [[nodiscard]] std::optional<SegmentRecord> findSegmentWithFingerprint(
      std::string_view document, const text::Fingerprint& fp,
      SegmentKind kind = SegmentKind::kParagraph) const;

  // ---- Introspection -------------------------------------------------------
  // The pointer/reference accessors below escape all synchronisation by
  // design (snapshot export, tests, benches, the plug-in's lockState()
  // sections). They read the active replica and are safe only while no
  // concurrent mutation runs; the external-serialisation contract is
  // documented in the class comment.

  [[nodiscard]] const SegmentRecord* segment(SegmentId id) const {
    util::LeftRightReadGuard guard(lr_);
    return readerStores(guard).segments.find(id);
  }
  [[nodiscard]] const SegmentRecord* segmentByName(
      std::string_view name) const {
    util::LeftRightReadGuard guard(lr_);
    return readerStores(guard).segments.findByName(name);
  }
  /// The hash store for one tracking granularity. Paragraphs and documents
  /// are tracked independently (paper S4.1), so provenance ("oldest segment
  /// with hash h") is kind-local: a document fingerprint never steals
  /// authority from its own paragraphs.
  [[nodiscard]] const HashDb& hashDb(
      SegmentKind kind = SegmentKind::kParagraph) const noexcept {
    return stores_[static_cast<std::size_t>(lr_.activeInstance())]
        .hashes[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const SegmentDb& segmentDb() const noexcept {
    return stores_[static_cast<std::size_t>(lr_.activeInstance())].segments;
  }
  [[nodiscard]] const TrackerConfig& config() const noexcept {
    return config_;
  }
  /// Store sizes read under a left-right guard — safe against concurrent
  /// writers, unlike hashDb()/segmentDb(). The sharded facade polls this
  /// for its per-shard bf_shard_* gauges.
  struct StoreSizes {
    std::size_t paragraphHashes = 0;
    std::size_t documentHashes = 0;
    std::size_t segments = 0;
  };
  [[nodiscard]] StoreSizes storeSizes() const;

  /// Snapshot of this tracker's counters (the registry's bf_tracker_*
  /// metrics keep accumulating process-wide and are not reset by
  /// resetStats()).
  [[nodiscard]] TrackerStats stats() const noexcept {
    TrackerStats out;
    out.queries = stats_.queries.load(std::memory_order_relaxed);
    out.cacheHits = stats_.cacheHits.load(std::memory_order_relaxed);
    out.cacheMisses = stats_.cacheMisses.load(std::memory_order_relaxed);
    out.candidatesInspected =
        stats_.candidatesInspected.load(std::memory_order_relaxed);
    out.fingerprintsComputed =
        stats_.fingerprintsComputed.load(std::memory_order_relaxed);
    return out;
  }
  void resetStats() noexcept {
    stats_.queries.store(0, std::memory_order_relaxed);
    stats_.cacheHits.store(0, std::memory_order_relaxed);
    stats_.cacheMisses.store(0, std::memory_order_relaxed);
    stats_.candidatesInspected.store(0, std::memory_order_relaxed);
    stats_.fingerprintsComputed.store(0, std::memory_order_relaxed);
  }

  /// Fingerprint helper using this tracker's configuration. A declassification
  /// gate (sec/sensitive.h): the winnowed hash set is non-invertible.
  [[nodiscard]] text::Fingerprint fingerprintOf(sec::SensitiveView text) const {
    return text::fingerprintText(text.raw(), config_.fingerprint);
  }

  // ---- Maintenance & snapshot support ---------------------------------------

  /// Drops all hash associations first seen before `cutoff` (the paper's
  /// "periodic removal of old fingerprints", S4.4). Segments themselves
  /// stay; they regain associations when next observed. Returns the number
  /// of associations dropped.
  std::size_t evictAssociationsOlderThan(util::Timestamp cutoff)
      BF_EXCLUDES(mutex_);

  /// Restores a segment exported by flow::exportState(). The id and name
  /// must be unused.
  void restoreSegment(SegmentRecord record) BF_EXCLUDES(mutex_);

  /// Restores one hash association with its original first-seen and
  /// last-seen timestamps (lastSeen 0 means "same as firstSeen" — the
  /// legacy snapshot/WAL formats predate the retention stamp).
  void restoreAssociation(SegmentKind kind, std::uint64_t hash,
                          SegmentId segment, util::Timestamp firstSeen,
                          util::Timestamp lastSeen = 0) BF_EXCLUDES(mutex_);

  // ---- Durability (flow/wal.h) ----------------------------------------------

  /// Attaches a write-ahead log: every subsequent mutation appends one
  /// record inside the same writer section that applies it (on the FIRST
  /// of its two replica applications), so the log order is exactly the
  /// mutation order and each mutation is logged exactly once. Pass nullptr
  /// to detach (the recovery path replays with the WAL detached so replay
  /// is not re-logged). The log is not owned and must outlive the
  /// attachment.
  void attachWal(WriteAheadLog* wal) BF_EXCLUDES(mutex_);

  /// Applies one WAL kSegmentObserved record: create-or-update the segment
  /// with the exact recorded ids, timestamps and fingerprint, recording the
  /// fingerprint's hash associations at the record's updatedAt (idempotent
  /// per (hash, segment), so re-observed hashes keep their original
  /// first-seen — the same outcome the live observation produced).
  void replaySegmentObserved(SegmentRecord record) BF_EXCLUDES(mutex_);

 private:
  struct CacheEntry {
    std::uint64_t fingerprintDigest = 0;
    std::uint64_t removalGeneration = 0;
    std::vector<DisclosureHit> hits;
    bool valid = false;
  };

  /// One complete replica of the tracker's mutable state. Left-right keeps
  /// two of these; every mutation is applied to both (one at a time, with
  /// a reader drain in between), so either replica alone answers any
  /// query. The decision cache is replicated too: a cache fill is a store
  /// mutation like any other.
  struct Stores {
    HashDb hashes[2];  // indexed by SegmentKind
    SegmentDb segments;
    std::unordered_map<SegmentId, CacheEntry> cache;
  };

  /// Deterministic clock for double-applied mutations. The first
  /// application records every now() it draws; rewind() makes the second
  /// application replay the identical timestamps, keeping the two replicas
  /// bit-identical even though the underlying clock moved on between the
  /// applications.
  class ClockTape {
   public:
    explicit ClockTape(util::Clock* clock) noexcept : clock_(clock) {}
    [[nodiscard]] util::Timestamp now() {
      if (pos_ < tape_.size()) return tape_[pos_++];
      tape_.push_back(clock_->now());
      pos_ = tape_.size();
      return tape_.back();
    }
    void reset() noexcept {
      tape_.clear();
      pos_ = 0;
    }
    void rewind() noexcept { pos_ = 0; }

   private:
    util::Clock* clock_;
    std::vector<util::Timestamp> tape_;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] static std::uint64_t digestOf(const text::Fingerprint& fp);
  [[nodiscard]] DisclosureHit makeHit(const SegmentRecord& source,
                                      double score, std::size_t overlap) const;

  [[nodiscard]] static constexpr std::size_t idx(SegmentKind kind) noexcept {
    return static_cast<std::size_t>(kind);
  }

  /// The replica a left-right reader may touch.
  [[nodiscard]] const Stores& readerStores(
      const util::LeftRightReadGuard& guard) const noexcept {
    return stores_[static_cast<std::size_t>(guard.instance())];
  }

  /// Writer protocol: applies `fn(Stores&, WriteAheadLog*)` to BOTH
  /// replicas. The first application runs on the replica no reader is
  /// directed at, with the attached WAL (so each mutation is logged exactly
  /// once); then flipAndWait() publishes it and drains every reader from
  /// the old replica; then the second application re-converges that replica
  /// with a null WAL. tape_ replays the first application's clock draws
  /// into the second, so the replicas stay identical. Returns the FIRST
  /// application's result. Must run under mutex_ (single writer).
  template <typename Fn>
  auto mutateStores(Fn&& fn) BF_REQUIRES(mutex_) {
    tape_.reset();
    using R = std::invoke_result_t<Fn&, Stores&, WriteAheadLog*>;
    if constexpr (std::is_void_v<R>) {
      fn(stores_[static_cast<std::size_t>(lr_.inactiveInstance())], wal_);
      lr_.flipAndWait();
      tape_.rewind();
      fn(stores_[static_cast<std::size_t>(lr_.inactiveInstance())], nullptr);
    } else {
      R out = fn(stores_[static_cast<std::size_t>(lr_.inactiveInstance())],
                 wal_);
      lr_.flipAndWait();
      tape_.rewind();
      fn(stores_[static_cast<std::size_t>(lr_.inactiveInstance())], nullptr);
      return out;
    }
  }

  /// Registers `fp` (already computed, OUTSIDE the lock) for the segment in
  /// replica `s`, logging to `wal` when non-null. Runs once per replica via
  /// mutateStores; draws timestamps from tape_ so both runs agree. Does NOT
  /// refresh the store gauges — callers batch mutations and refresh once
  /// per writer section.
  SegmentId observeSegmentIn(Stores& s, WriteAheadLog* wal, SegmentKind kind,
                             std::string_view name, std::string_view document,
                             std::string_view service,
                             const text::Fingerprint& fp,
                             std::optional<double> threshold)
      BF_REQUIRES(mutex_);

  /// Routed create-or-update with a facade-assigned explicit id; mirrors
  /// observeSegmentIn otherwise (WAL-once, cache invalidation, tape time).
  void observeRoutedIn(Stores& s, WriteAheadLog* wal, const RoutedObserve& op)
      BF_REQUIRES(mutex_);

  void removeSegmentIn(Stores& s, WriteAheadLog* wal, SegmentId id)
      BF_REQUIRES(mutex_);

  /// Pure read of one replica: Algorithm 1's candidate discovery and
  /// scoring in one pass over the target's hashes, unsorted. Without a
  /// `tenant` it applies thresholds and the early discard (the full
  /// query); with one it is a shard's partial query — tenant-filtered raw
  /// overlaps, no thresholds, no early discard (see partialHits).
  [[nodiscard]] std::vector<DisclosureHit> scoreCandidatesIn(
      const Stores& s, const text::Fingerprint& target,
      SegmentKind sourceKind, SegmentId self, std::string_view selfDocument,
      std::optional<TenantId> tenant) const;

  /// Pure read of one replica: Algorithm 1 over `s`. Runs under a
  /// left-right read guard (query paths) or the writer mutex
  /// (sourcesForSegment's recompute) — either way the replica is quiescent.
  [[nodiscard]] std::vector<DisclosureHit> disclosedSourcesIn(
      const Stores& s, const text::Fingerprint& target,
      SegmentKind sourceKind, SegmentId self,
      std::string_view selfDocument) const;

  /// Pushes the active replica's DBhash/DBpar sizes into the registry
  /// gauges. Writer-side (the active replica is stable under mutex_).
  void refreshStoreGauges() const noexcept BF_REQUIRES(mutex_);

  /// Live per-instance counters behind the TrackerStats view. Incremented
  /// with relaxed atomics from const query paths, which the async decision
  /// worker and direct callers reach concurrently.
  struct AtomicStats {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};
    std::atomic<std::uint64_t> candidatesInspected{0};
    std::atomic<std::uint64_t> fingerprintsComputed{0};
  };

  TrackerConfig config_;  // immutable after construction
  /// Writer-side mutex: serialises mutations (and the clock tape and WAL
  /// they use). Readers never touch it — the left-right protocol keeps
  /// them out of the replica being mutated. Ranked below the engine's
  /// stateMutex_ in the documented hierarchy, like the reader-writer lock
  /// it replaced.
  util::Mutex mutex_{util::kRankTracker, "FlowTracker.mutex_"};
  /// Left-right switch over stores_ (which replica readers see, reader
  /// presence indicators, writer flip-and-drain).
  util::LeftRightControl lr_;
  /// The two store replicas. NOT mutex-guarded by design: readers access
  /// the active replica with no lock at all; the left-right protocol (not
  /// the mutex) is what keeps reads race-free. Writers touch replicas only
  /// through mutateStores under mutex_.
  Stores stores_[2];
  ClockTape tape_ BF_GUARDED_BY(mutex_);
  /// Optional durability log; the first replica application of each
  /// mutation appends to it while holding the writer mutex (flow/wal.h),
  /// so log order is mutation order. Not owned.
  WriteAheadLog* wal_ BF_GUARDED_BY(mutex_) = nullptr;
  mutable AtomicStats stats_;
};

}  // namespace bf::flow
