// FlowTracker — imprecise data flow tracking facade (paper S4).
//
// Owns the two stores of S4.3 (HashDb = "DBhash", SegmentDb = "DBpar"),
// fingerprints observed text, and answers the information disclosure
// question: "what is the set of the original sources s in db that t
// discloses significant information from currently?" via Algorithm 1.
//
// Performance behaviour mirrors the paper (S6.2):
//  - observing an edit re-fingerprints only the edited segment;
//  - if the fingerprint's hash set is unchanged (the common case for one
//    keystroke) the previous disclosure answer is served from a
//    per-segment cache; grams that only moved replace the stored ones, so
//    attribution follows the text;
//  - candidate sources are discovered only through shared hashes, so cost
//    is linear in the number of segments sharing at least one hash.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flow/disclosure.h"
#include "flow/hash_db.h"
#include "flow/ids.h"
#include "flow/segment_db.h"
#include "obs/metrics.h"
#include "sec/sensitive.h"
#include "text/fingerprint_kernel.h"
#include "text/winnower.h"
#include "util/clock.h"
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

/// Thread safety — one store, one mutex (DESIGN.md §10). DBhash, DBpar and
/// the decision cache live in one Stores guarded by mutex_
/// (util::kRankTracker). Every query and every mutation holds it, so each
/// write is applied once and a reader never sees a store mid-mutation. On
/// the decision path the engine's stateMutex_ (taken before it) already
/// serialises all callers, so the tracker mutex is uncontended there.
///
/// Accessors that hand out pointers or references into the stores
/// (segment, segmentByName, hashDb, segmentDb) outlive the lock; callers
/// that keep them across operations must serialise externally (the
/// engine's stateMutex_ provides this on the decision path). Fingerprinting
/// runs OUTSIDE the mutex: it is pure CPU on immutable config, so
/// concurrent observers only serialise on store updates, not on hashing.
class FlowTracker {
 public:
  /// `clock` provides observation timestamps; not owned, must outlive the
  /// tracker. The clock is only invoked under the tracker mutex, so a
  /// non-thread-safe LogicalClock is fine even with concurrent observers.
  FlowTracker(TrackerConfig config, util::Clock* clock);

  // ---- Observation (feeding the tracker) ----------------------------------

  /// Creates or updates a segment identified by its unique `name` with the
  /// given text. Fingerprints the text, records new hashes in DBhash, and
  /// stores the fingerprint in DBpar. Returns the segment id. A
  /// `threshold` that differs from the segment's current one invalidates
  /// cached decisions, as setSegmentThreshold does.
  /// `text` is raw document content: it enters as sec::SensitiveView and
  /// only its fingerprint (a declassification gate) is ever stored.
  SegmentId observeSegment(SegmentKind kind, std::string_view name,
                           std::string_view document,
                           std::string_view service, sec::SensitiveView text,
                           std::optional<double> threshold = std::nullopt)
      BF_EXCLUDES(mutex_);

  /// observeSegment with the text's fingerprint already computed (by
  /// fingerprintOf): the decision engine fingerprints a text once and
  /// reuses it across the units and requests that carry the same text.
  SegmentId observeFingerprint(SegmentKind kind, std::string_view name,
                               std::string_view document,
                               std::string_view service,
                               const text::Fingerprint& fp,
                               std::optional<double> threshold = std::nullopt)
      BF_EXCLUDES(mutex_);

  /// Observes a whole document: one document-kind segment named `docName`
  /// plus one paragraph-kind segment "docName#p<i>" per paragraph.
  /// Batched: all fingerprints are computed outside the lock, on the
  /// calling thread, then applied under ONE lock section with a single
  /// gauge refresh — the lock is taken once, not N+1 times.
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
  /// `self` excludes the queried segment (Algorithm 1's "if p = P then
  /// continue"); a non-empty `selfDocument` excludes every source of that
  /// document.
  [[nodiscard]] std::vector<DisclosureHit> disclosedSources(
      const text::Fingerprint& target, SegmentKind sourceKind,
      SegmentId self = kInvalidSegment,
      std::string_view selfDocument = {}) const BF_EXCLUDES(mutex_);

  /// Fingerprints `text` and queries paragraph-kind sources without
  /// registering anything — the "would uploading this leak?" path. The
  /// text is fingerprinted before the mutex is taken.
  [[nodiscard]] std::vector<DisclosureHit> checkText(
      sec::SensitiveView text, std::string_view excludeDocument = {}) const
      BF_EXCLUDES(mutex_);

  /// Cached per-segment query: disclosing sources of the segment's current
  /// fingerprint. Serves the cached answer when the fingerprint is
  /// unchanged since the last call (the per-keystroke common case of S6.2);
  /// otherwise recomputes and fills the cache, all under one hold of the
  /// mutex. Returns a copy of the hits (the cache entry itself may be
  /// invalidated by a concurrent observation once the mutex is released).
  [[nodiscard]] std::vector<DisclosureHit> sourcesForSegment(SegmentId id)
      BF_EXCLUDES(mutex_);

  /// What disclosedSources(F(id), kind(id), kInvalidSegment, document(id))
  /// answers — a probe of a text that IS registered segment `id` — without
  /// changing any state. Serves the decision cache's answer when the entry
  /// is valid and no segment of another document changed its fingerprint
  /// since the entry was filled (the cached query excluded the segment's
  /// own document, so nothing else can have moved it); otherwise runs
  /// Algorithm 1 and leaves the cache as it was. Empty for unknown ids.
  [[nodiscard]] std::vector<DisclosureHit> sourcesForProbe(SegmentId id) const
      BF_EXCLUDES(mutex_);

  /// Pairwise disclosure score D(source, target) between two registered
  /// segments (tests check Algorithm 1's scores with it).
  [[nodiscard]] double pairwiseDisclosure(SegmentId source,
                                          SegmentId target) const
      BF_EXCLUDES(mutex_);

  /// Attribution (paper S4.1): which passages of the SOURCE segment does
  /// `target` disclose? Returns merged [begin, end) byte ranges into the
  /// source's original text, covering every authoritative source hash that
  /// also appears in the target. Empty if either side is unknown/empty.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  attributeDisclosure(SegmentId source, const text::Fingerprint& target) const
      BF_EXCLUDES(mutex_);

  /// The registered segment of `document` whose fingerprint has exactly the
  /// same hash set as `fp` (nullopt if none, or if fp is empty). Lets the
  /// upload path recognise "this outgoing text IS that tracked paragraph"
  /// and reuse its label — including user suppressions. Returns a COPY of
  /// the record: a pointer into the store would dangle the moment a
  /// concurrent observation updated that segment.
  [[nodiscard]] std::optional<SegmentRecord> findSegmentWithFingerprint(
      std::string_view document, const text::Fingerprint& fp,
      SegmentKind kind = SegmentKind::kParagraph) const BF_EXCLUDES(mutex_);

  // ---- Introspection -------------------------------------------------------
  // The pointer/reference accessors below escape the mutex by design
  // (snapshot export, tests, benches, the plug-in's lockState() sections).
  // They are safe only while no concurrent mutation runs; the
  // external-serialisation contract is documented in the class comment.

  [[nodiscard]] const SegmentRecord* segment(SegmentId id) const
      BF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return stores_.segments.find(id);
  }
  [[nodiscard]] const SegmentRecord* segmentByName(std::string_view name) const
      BF_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return stores_.segments.findByName(name);
  }
  /// The hash store. Provenance ("oldest segment with hash h") is
  /// kind-local (paper S4.1): a document never steals authority from its
  /// own paragraphs.
  [[nodiscard]] const HashDb& hashDb() const noexcept
      BF_NO_THREAD_SAFETY_ANALYSIS {
    return stores_.hashes;
  }
  [[nodiscard]] const SegmentDb& segmentDb() const noexcept
      BF_NO_THREAD_SAFETY_ANALYSIS {
    return stores_.segments;
  }
  [[nodiscard]] const TrackerConfig& config() const noexcept {
    return config_;
  }
  /// Store sizes read under the mutex — safe against concurrent writers,
  /// unlike hashDb()/segmentDb().
  struct StoreSizes {
    std::size_t paragraphHashes = 0;
    std::size_t documentHashes = 0;
    std::size_t segments = 0;
  };
  [[nodiscard]] StoreSizes storeSizes() const BF_EXCLUDES(mutex_);

  /// Fingerprint helper using this tracker's configuration; counts in
  /// bf_tracker_fingerprints_computed_total. A declassification gate
  /// (sec/sensitive.h): the winnowed hash set is non-invertible.
  [[nodiscard]] text::Fingerprint fingerprintOf(sec::SensitiveView text) const;
  /// fingerprintOf(text), spliced from an earlier text and its fingerprint
  /// (text::refingerprint): `previousFp` must be fingerprintOf(previous)
  /// and `shared` text::sharedEdges(previous, text). Costs about what the
  /// edit between the two texts costs; counts in
  /// bf_tracker_fingerprints_computed_total like a full fingerprint.
  [[nodiscard]] text::Fingerprint fingerprintOf(
      sec::SensitiveView text, sec::SensitiveView previous,
      const text::Fingerprint& previousFp, text::SharedEdges shared) const;

  // ---- Maintenance & snapshot support ---------------------------------------

  /// Restores a segment exported by flow::exportState(). The id and name
  /// must be unused. Not logged: flow::importState() refuses a tracker
  /// with a WAL attached, and a checkpoint covers what it restores.
  void restoreSegment(SegmentRecord record) BF_EXCLUDES(mutex_);

  /// Restores one hash association with its original first-seen
  /// timestamp. Not logged, like restoreSegment.
  void restoreAssociation(SegmentKind kind, text::Hash hash,
                          SegmentId segment, util::Timestamp firstSeen)
      BF_EXCLUDES(mutex_);

  // ---- Durability (flow/wal.h) ----------------------------------------------

  /// Attaches a write-ahead log: every subsequent mutation appends one
  /// record inside the same mutex section that applies it, so the log
  /// order is exactly the mutation order. Pass nullptr to detach (the
  /// recovery path replays with the WAL detached so replay is not
  /// re-logged). The log is not owned and must outlive the attachment.
  void attachWal(WriteAheadLog* wal) BF_EXCLUDES(mutex_);

  /// True while a write-ahead log is attached.
  [[nodiscard]] bool walAttached() const BF_EXCLUDES(mutex_);

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
    /// Stores::changes when the entry was filled.
    std::uint64_t filledAt = 0;
    std::vector<DisclosureHit> hits;
    bool valid = false;
  };

  /// The newest fingerprint changes of one segment kind, for
  /// sourcesForProbe's freshness test. The newest change, and the newest
  /// change outside that change's document, answer "when did a segment
  /// outside document D last change?" for every D.
  struct ChangeLog {
    std::uint64_t newest = 0;
    /// Newest change outside `newestDocument`.
    std::uint64_t newestElsewhere = 0;
    std::string newestDocument;
    /// The newest change may concern any document (restores, replays).
    bool newestEverywhere = false;

    void note(std::uint64_t stamp, std::string_view document) {
      if (newestEverywhere || document != newestDocument) {
        newestElsewhere = newest;
        newestDocument.assign(document);
        newestEverywhere = false;
      }
      newest = stamp;
    }
    void noteEverywhere(std::uint64_t stamp) {
      newest = newestElsewhere = stamp;
      newestEverywhere = true;
    }
    [[nodiscard]] std::uint64_t newestOutside(
        std::string_view document) const {
      return newestEverywhere || document != newestDocument ? newest
                                                            : newestElsewhere;
    }
  };

  /// One owner's claims in a query: the claims form a chain through
  /// QueryWorkspace::next, in the order oldestOwners produced them.
  struct OwnerGroup {
    SegmentId owner;
    std::uint32_t claims;  // chain length
    std::uint32_t first;   // index into QueryWorkspace::claims
    std::uint32_t last;
  };

  /// disclosedSourcesLocked's working memory, kept between queries so a
  /// query allocates only its hits.
  struct QueryWorkspace {
    std::vector<std::pair<SegmentId, text::Hash>> claims;
    /// Per claim, the index of its owner's next claim.
    std::vector<std::uint32_t> next;
    std::vector<OwnerGroup> groups;
    /// Open-addressed owner -> group index + 1; 0 marks an empty slot.
    std::vector<std::uint32_t> index;
  };

  /// The tracker's mutable state: DBhash (one index, a head per kind),
  /// DBpar, and the decision cache.
  struct Stores {
    HashDb hashes;
    SegmentDb segments;
    std::unordered_map<SegmentId, CacheEntry> cache;
    /// Counts fingerprint changes; the logs hold stamps of this count.
    std::uint64_t changes = 0;
    ChangeLog changeLogs[2];  // indexed by SegmentKind
  };

  [[nodiscard]] static std::uint64_t digestOf(const text::Fingerprint& fp);
  [[nodiscard]] DisclosureHit makeHit(const SegmentRecord& source,
                                      double score, std::size_t overlap) const;

  /// Registers `fp` (already computed, OUTSIDE the lock) for the segment,
  /// logging to the attached WAL. Does NOT refresh the store gauges —
  /// callers batch mutations and refresh once per lock section.
  SegmentId observeSegmentLocked(SegmentKind kind, std::string_view name,
                                 std::string_view document,
                                 std::string_view service,
                                 const text::Fingerprint& fp,
                                 std::optional<double> threshold)
      BF_REQUIRES(mutex_);

  void removeSegmentLocked(SegmentId id) BF_REQUIRES(mutex_);

  /// Records a change that may move any cached answer (snapshot restore,
  /// WAL replay).
  void noteChangeEverywhereLocked() BF_REQUIRES(mutex_);

  /// Algorithm 1: candidate discovery in one pass over the target's
  /// hashes, then scoring per owner, sorted by score.
  [[nodiscard]] std::vector<DisclosureHit> disclosedSourcesLocked(
      const text::Fingerprint& target, SegmentKind sourceKind,
      SegmentId self, std::string_view selfDocument) const
      BF_REQUIRES(mutex_);

  /// Pushes the DBhash/DBpar sizes into the registry gauges.
  void refreshStoreGauges() const noexcept BF_REQUIRES(mutex_);

  TrackerConfig config_;  // immutable after construction
  /// Serialises every query and mutation (and the clock and WAL they use).
  /// Ranked below the engine's stateMutex_ in the documented hierarchy.
  mutable util::Mutex mutex_{util::kRankTracker, "FlowTracker.mutex_"};
  Stores stores_ BF_GUARDED_BY(mutex_);
  mutable QueryWorkspace workspace_ BF_GUARDED_BY(mutex_);
  util::Clock* clock_ BF_PT_GUARDED_BY(mutex_);
  /// Optional durability log; each mutation appends to it while holding
  /// mutex_ (flow/wal.h), so log order is mutation order. Not owned.
  WriteAheadLog* wal_ BF_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace bf::flow
