#include "flow/tracker.h"

#include <algorithm>
#include <bit>

#include "flow/wal.h"
#include "obs/stage.h"
#include "text/fingerprint_kernel.h"
#include "text/segmenter.h"
#include "util/hashing.h"

namespace bf::flow {

namespace {

/// Process-wide tracker metrics, resolved once. The counters sum over every
/// tracker in the process; the gauges report the sizes of the most recently
/// updated tracker's stores (exact in a single-tracker process, the common
/// deployment).
struct TrackerMetrics {
  obs::Counter* queries;
  obs::Counter* cacheHits;
  obs::Counter* cacheMisses;
  obs::Counter* candidates;
  obs::Counter* fingerprints;
  obs::Gauge* dbhashParagraphHashes;
  obs::Gauge* dbhashDocumentHashes;
  obs::Gauge* dbhashBytes;
  obs::Gauge* dbparSegments;
};

const TrackerMetrics& trackerMetrics() {
  static const TrackerMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    TrackerMetrics out;
    out.queries = &r.counter("bf_tracker_queries_total",
                             "Disclosure queries answered (Algorithm 1)");
    out.cacheHits = &r.counter(
        "bf_tracker_cache_hits_total",
        "Per-segment queries served from the unchanged-fingerprint cache");
    out.cacheMisses =
        &r.counter("bf_tracker_cache_misses_total",
                   "Per-segment queries that recomputed disclosure");
    out.candidates = &r.counter("bf_tracker_candidates_inspected_total",
                                "Candidate sources scored during queries");
    out.fingerprints = &r.counter("bf_tracker_fingerprints_computed_total",
                                  "Text fingerprints computed");
    out.dbhashParagraphHashes =
        &r.gauge("bf_tracker_dbhash_paragraph_hashes",
                 "Distinct paragraph hashes in DBhash");
    out.dbhashDocumentHashes =
        &r.gauge("bf_tracker_dbhash_document_hashes",
                 "Distinct document hashes in DBhash");
    out.dbhashBytes =
        &r.gauge("bf_tracker_dbhash_bytes",
                 "Bytes held by DBhash (one index for both kinds: slots, "
                 "run headers, history pool, escapes)");
    out.dbparSegments =
        &r.gauge("bf_tracker_dbpar_segments", "Live segments in DBpar");
    return out;
  }();
  return m;
}

}  // namespace

FlowTracker::FlowTracker(TrackerConfig config, util::Clock* clock)
    : config_(config), clock_(clock) {}

void FlowTracker::refreshStoreGauges() const noexcept {
  const TrackerMetrics& m = trackerMetrics();
  const HashDb& db = stores_.hashes;
  m.dbhashParagraphHashes->set(
      static_cast<double>(db.distinctHashCount(SegmentKind::kParagraph)));
  m.dbhashDocumentHashes->set(
      static_cast<double>(db.distinctHashCount(SegmentKind::kDocument)));
  m.dbhashBytes->set(static_cast<double>(db.memoryBytes()));
  m.dbparSegments->set(static_cast<double>(stores_.segments.size()));
}

std::uint64_t FlowTracker::digestOf(const text::Fingerprint& fp) {
  // Order-independent-enough digest: hashes() is sorted, so a sequential
  // combine is deterministic for a given hash set.
  std::uint64_t d = 0x9e3779b97f4a7c15ULL;
  for (text::Hash h : fp.hashes()) d = util::hashCombine(d, h);
  return d ^ fp.size();
}

text::Fingerprint FlowTracker::fingerprintOf(sec::SensitiveView text) const {
  trackerMetrics().fingerprints->inc();
  return text::fingerprintText(text.raw(), config_.fingerprint);
}

text::Fingerprint FlowTracker::fingerprintOf(
    sec::SensitiveView text, sec::SensitiveView previous,
    const text::Fingerprint& previousFp, text::SharedEdges shared) const {
  trackerMetrics().fingerprints->inc();
  return text::refingerprint(previous.raw(), previousFp, text.raw(),
                             config_.fingerprint,
                             text::threadLocalFingerprintWorkspace(), shared);
}

SegmentId FlowTracker::observeSegment(SegmentKind kind, std::string_view name,
                                      std::string_view document,
                                      std::string_view service,
                                      sec::SensitiveView text,
                                      std::optional<double> threshold) {
  // Fingerprinting is pure CPU over immutable config: do it before taking
  // the mutex so concurrent observers only serialise on the store update.
  text::Fingerprint fp;
  {
    obs::StageTimer fpTimer(obs::Stage::kFingerprint);
    fp = fingerprintOf(text);
  }
  return observeFingerprint(kind, name, document, service, fp, threshold);
}

SegmentId FlowTracker::observeFingerprint(SegmentKind kind,
                                          std::string_view name,
                                          std::string_view document,
                                          std::string_view service,
                                          const text::Fingerprint& fp,
                                          std::optional<double> threshold) {
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  const SegmentId id =
      observeSegmentLocked(kind, name, document, service, fp, threshold);
  refreshStoreGauges();
  return id;
}

SegmentId FlowTracker::observeSegmentLocked(SegmentKind kind,
                                            std::string_view name,
                                            std::string_view document,
                                            std::string_view service,
                                            const text::Fingerprint& fp,
                                            std::optional<double> threshold) {
  const double defaultThreshold = kind == SegmentKind::kParagraph
                                      ? config_.defaultParagraphThreshold
                                      : config_.defaultDocumentThreshold;
  const SegmentRecord* existing = stores_.segments.findByName(name);
  SegmentId id;
  if (existing == nullptr) {
    id = stores_.segments.create(kind, std::string(name),
                                 std::string(document), std::string(service),
                                 threshold.value_or(defaultThreshold),
                                 clock_->now());
  } else {
    id = existing->id;
    if (threshold && *threshold != existing->threshold) {
      stores_.segments.setThreshold(id, *threshold);
      // A source's threshold changes every other segment's query outcome
      // (as in setSegmentThreshold).
      stores_.cache.clear();
    }
    // Unchanged hash set: nothing for DBhash and the cached disclosure
    // answer stays valid (the per-keystroke fast path of S6.2). A threshold
    // change is still durable state, so it is logged. Grams that moved (a
    // space typed mid-paragraph shifts every later position) replace the
    // stored ones at the unchanged updatedAt, so attribution ranges (S4.1)
    // follow the text; replaySegmentObserved leaves DBhash alone for them.
    if (existing->fingerprint.sameHashes(fp)) {
      if (wal_ != nullptr && threshold) {
        wal_->logThresholdChanged(name, *threshold);
      }
      if (existing->fingerprint.grams() != fp.grams()) {
        stores_.segments.updateFingerprint(id, fp, existing->updatedAt);
        if (wal_ != nullptr) wal_->logSegmentObserved(*existing);
      }
      return id;
    }
  }

  const util::Timestamp now = clock_->now();
  {
    obs::StageTimer recordTimer(obs::Stage::kTrackerRecord);
    stores_.hashes.recordFingerprint(kind, fp.hashes(), id, now);
    stores_.segments.updateFingerprint(id, fp, now);
  }
  if (auto it = stores_.cache.find(id); it != stores_.cache.end()) {
    it->second.valid = false;
  }
  stores_.changeLogs[kindIndex(kind)].note(++stores_.changes,
                                     stores_.segments.find(id)->document);
  if (wal_ != nullptr) {
    // Log the POST-mutation record: replaying it recreates the segment with
    // its effective threshold and timestamps, and re-records its hash
    // associations at updatedAt (HashDb idempotency keeps earlier
    // first-seen timestamps, exactly as the live path did).
    if (const SegmentRecord* rec = stores_.segments.find(id);
        rec != nullptr) {
      wal_->logSegmentObserved(*rec);
    }
  }
  return id;
}

FlowTracker::DocumentObservation FlowTracker::observeDocument(
    std::string_view docName, std::string_view service,
    sec::SensitiveView fullText, std::optional<double> paragraphThreshold,
    std::optional<double> documentThreshold) {
  const std::uint64_t fpStart = obs::stageStart();
  const auto paras = text::segmentParagraphs(fullText.raw());

  // Fingerprint the document and every paragraph OUTSIDE the lock — pure
  // CPU over immutable config, on the calling thread.
  text::Fingerprint docFp = fingerprintOf(fullText);
  std::vector<text::Fingerprint> paraFps;
  paraFps.reserve(paras.size());
  for (const auto& para : paras) paraFps.push_back(fingerprintOf(para.text));
  obs::stageEnd(obs::Stage::kFingerprint, fpStart);

  // One lock section applies every store update, then refreshes the gauges
  // once — the lock is taken once, not once per paragraph.
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  DocumentObservation out;
  out.paragraphs.reserve(paras.size());
  out.document = observeSegmentLocked(SegmentKind::kDocument, docName, docName,
                                      service, docFp, documentThreshold);
  for (std::size_t i = 0; i < paras.size(); ++i) {
    std::string pname =
        std::string(docName) + "#p" + std::to_string(paras[i].index);
    out.paragraphs.push_back(observeSegmentLocked(SegmentKind::kParagraph,
                                                  pname, docName, service,
                                                  paraFps[i],
                                                  paragraphThreshold));
  }
  refreshStoreGauges();
  return out;
}

void FlowTracker::removeSegmentByName(std::string_view name) {
  util::MutexLock lock(mutex_);
  const SegmentRecord* rec = stores_.segments.findByName(name);
  if (rec != nullptr) removeSegmentLocked(rec->id);
  refreshStoreGauges();
}

void FlowTracker::removeSegment(SegmentId id) {
  util::MutexLock lock(mutex_);
  removeSegmentLocked(id);
  refreshStoreGauges();
}

void FlowTracker::removeSegmentLocked(SegmentId id) {
  // Associations are recorded only for segments DBpar holds, so an id it
  // does not know has nothing live in DBhash.
  if (const SegmentRecord* rec = stores_.segments.find(id); rec != nullptr) {
    stores_.hashes.removeSegment(rec->kind, id);
    stores_.segments.remove(id);
    stores_.cache.erase(id);
  }
  if (wal_ != nullptr) wal_->logSegmentRemoved(id);
}

std::vector<DisclosureHit> FlowTracker::disclosedSources(
    const text::Fingerprint& target, SegmentKind sourceKind, SegmentId self,
    std::string_view selfDocument) const {
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  return disclosedSourcesLocked(target, sourceKind, self, selfDocument);
}

std::vector<DisclosureHit> FlowTracker::disclosedSourcesLocked(
    const text::Fingerprint& target, SegmentKind sourceKind, SegmentId self,
    std::string_view selfDocument) const {
  obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
  trackerMetrics().queries->inc();
  std::vector<DisclosureHit> hits;
  if (target.empty()) return hits;

  // Candidate discovery (Algorithm 1's main loop over fpar) records each
  // target hash under the segment that may claim it. With authoritative
  // fingerprints only the OLDEST owner of a hash can count it —
  // "p <- oldestParagraphWith(h, DBhash)" — so the candidate set is bounded
  // by |F(target)| regardless of database size. This is what makes
  // response time scale sub-linearly with the hash count (paper Fig. 13).
  // The naive containment ablation lets every segment sharing a hash
  // compete instead.
  const HashDb& db = stores_.hashes;
  auto& claims = workspace_.claims;
  claims.clear();
  if (config_.useAuthoritative) {
    db.oldestOwners(sourceKind, target.hashes(), claims);
  } else {
    for (text::Hash h : target.hashes()) {
      for (SegmentId s : db.segmentsWith(sourceKind, h)) {
        claims.emplace_back(s, h);
      }
    }
  }

  // Group the claims by owner in one pass. The hits are sorted at the end,
  // so the groups need no order; each owner's chain keeps its claims in
  // target order, which is ascending hash order.
  auto& next = workspace_.next;
  auto& groups = workspace_.groups;
  auto& index = workspace_.index;
  groups.clear();
  next.resize(claims.size());
  index.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * claims.size())),
               0);
  const std::size_t mask = index.size() - 1;
  for (std::uint32_t i = 0; i < claims.size(); ++i) {
    const SegmentId owner = claims[i].first;
    std::size_t slot = util::mix64(owner) & mask;
    while (index[slot] != 0 && groups[index[slot] - 1].owner != owner) {
      slot = (slot + 1) & mask;
    }
    if (index[slot] == 0) {
      groups.push_back({owner, 1, i, i});
      index[slot] = static_cast<std::uint32_t>(groups.size());
    } else {
      OwnerGroup& g = groups[index[slot] - 1];
      next[g.last] = i;
      g.last = i;
      ++g.claims;
    }
  }

  std::uint64_t inspected = 0;
  for (const OwnerGroup& g : groups) {
    if (g.owner == self) continue;  // "if p = P then continue"
    const SegmentRecord* rec = stores_.segments.find(g.owner);
    if (rec == nullptr || rec->kind != sourceKind) continue;
    if (!selfDocument.empty() && rec->document == selfDocument) continue;
    ++inspected;
    const std::size_t sourceSize = rec->fingerprint.size();
    // Early discard (Algorithm 1): a source needing more overlapping hashes
    // than the target has cannot meet its threshold.
    if (sourceSize == 0 || static_cast<double>(sourceSize) * rec->threshold >
                               static_cast<double>(target.size())) {
      continue;
    }
    const double size = static_cast<double>(sourceSize);
    std::size_t overlap = 0;
    if (config_.useAuthoritative) {
      // The overlap counts a subset of the owner's claims, and dividing
      // both counts by the same size keeps their order, so an owner whose
      // claim count misses the threshold cannot be a hit: its fingerprint
      // is never read.
      if (!isDisclosed(g.claims / size, g.claims, rec->threshold)) continue;
      // Authoritative overlap counted from the target side: the claimed
      // hashes its CURRENT fingerprint still contains (DBhash keeps the
      // associations of overwritten fingerprints) — the set
      // authoritativeOverlap counts. Claims and fingerprint are both
      // ascending, so one forward search walks both.
      const std::vector<text::Hash>& own = rec->fingerprint.hashes();
      auto at = own.begin();
      for (std::uint32_t i = g.first, left = g.claims; left > 0;
           --left, i = next[i]) {
        at = std::lower_bound(at, own.end(), claims[i].second);
        if (at == own.end()) break;
        if (*at == claims[i].second) {
          ++overlap;
          ++at;
        }
      }
    } else {
      overlap = text::Fingerprint::intersectionSize(rec->fingerprint, target);
    }
    const double score = static_cast<double>(overlap) / size;
    if (isDisclosed(score, overlap, rec->threshold)) {
      hits.push_back(makeHit(*rec, score, overlap));
    }
  }
  trackerMetrics().candidates->inc(inspected);
  std::sort(hits.begin(), hits.end(),
            [](const DisclosureHit& a, const DisclosureHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.source < b.source;
            });
  return hits;
}

FlowTracker::StoreSizes FlowTracker::storeSizes() const {
  util::MutexLock lock(mutex_);
  return {stores_.hashes.distinctHashCount(SegmentKind::kParagraph),
          stores_.hashes.distinctHashCount(SegmentKind::kDocument),
          stores_.segments.size()};
}

std::vector<DisclosureHit> FlowTracker::checkText(
    sec::SensitiveView text, std::string_view excludeDocument) const {
  const std::uint64_t fpStart = obs::stageStart();
  const text::Fingerprint fp = fingerprintOf(text);
  obs::stageEnd(obs::Stage::kFingerprint, fpStart);
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  return disclosedSourcesLocked(fp, SegmentKind::kParagraph, kInvalidSegment,
                                excludeDocument);
}

std::vector<DisclosureHit> FlowTracker::sourcesForSegment(SegmentId id) {
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  const SegmentRecord* rec = stores_.segments.find(id);
  if (rec == nullptr) return {};
  std::uint64_t digest = 0;
  std::uint64_t removalGen = 0;
  {
    // Cache probe: an unchanged fingerprint serves the cached answer (the
    // per-keystroke common case of S6.2). A miss is timed by the query.
    obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
    digest = digestOf(rec->fingerprint);
    removalGen = stores_.hashes.removalGeneration(rec->kind);
    const auto it = stores_.cache.find(id);
    if (config_.enableCache && it != stores_.cache.end() &&
        it->second.valid && it->second.fingerprintDigest == digest &&
        it->second.removalGeneration == removalGen) {
      trackerMetrics().cacheHits->inc();
      return it->second.hits;
    }
  }
  trackerMetrics().cacheMisses->inc();
  std::vector<DisclosureHit> hits =
      disclosedSourcesLocked(rec->fingerprint, rec->kind, id, rec->document);
  CacheEntry& entry = stores_.cache[id];
  entry.hits = hits;
  entry.fingerprintDigest = digest;
  entry.removalGeneration = removalGen;
  entry.filledAt = stores_.changes;
  entry.valid = true;
  return hits;
}

std::vector<DisclosureHit> FlowTracker::sourcesForProbe(SegmentId id) const {
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  const SegmentRecord* rec = stores_.segments.find(id);
  if (rec == nullptr) return {};
  // With an empty document the cached query excluded only the segment
  // itself, and a probe excludes nothing: no reuse.
  if (config_.enableCache && !rec->document.empty()) {
    obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
    const auto it = stores_.cache.find(id);
    if (it != stores_.cache.end() && it->second.valid &&
        it->second.fingerprintDigest == digestOf(rec->fingerprint) &&
        it->second.removalGeneration ==
            stores_.hashes.removalGeneration(rec->kind) &&
        stores_.changeLogs[kindIndex(rec->kind)].newestOutside(rec->document) <=
            it->second.filledAt) {
      trackerMetrics().cacheHits->inc();
      return it->second.hits;
    }
  }
  trackerMetrics().cacheMisses->inc();
  return disclosedSourcesLocked(rec->fingerprint, rec->kind, kInvalidSegment,
                                rec->document);
}

double FlowTracker::pairwiseDisclosure(SegmentId source,
                                       SegmentId target) const {
  util::MutexLock lock(mutex_);
  const SegmentRecord* src = stores_.segments.find(source);
  const SegmentRecord* tgt = stores_.segments.find(target);
  if (src == nullptr || tgt == nullptr) return 0.0;
  if (config_.useAuthoritative) {
    return disclosureScore(*src, tgt->fingerprint, stores_.hashes);
  }
  const std::size_t total = src->fingerprint.size();
  if (total == 0) return 0.0;
  return static_cast<double>(text::Fingerprint::intersectionSize(
             src->fingerprint, tgt->fingerprint)) /
         static_cast<double>(total);
}

bool FlowTracker::setSegmentThreshold(std::string_view name,
                                      double threshold) {
  util::MutexLock lock(mutex_);
  const SegmentRecord* rec = stores_.segments.findByName(name);
  if (rec == nullptr) return false;
  stores_.segments.setThreshold(rec->id, threshold);
  // A source's threshold changes every other segment's query outcome.
  stores_.cache.clear();
  if (wal_ != nullptr) wal_->logThresholdChanged(name, threshold);
  return true;
}

void FlowTracker::noteChangeEverywhereLocked() {
  ++stores_.changes;
  for (ChangeLog& log : stores_.changeLogs) log.noteEverywhere(stores_.changes);
}

void FlowTracker::restoreSegment(SegmentRecord record) {
  util::MutexLock lock(mutex_);
  stores_.segments.restore(std::move(record));
  noteChangeEverywhereLocked();
  refreshStoreGauges();
}

void FlowTracker::restoreAssociation(SegmentKind kind, text::Hash hash,
                                     SegmentId segment,
                                     util::Timestamp firstSeen) {
  // Called once per association during snapshot import; the store gauges
  // are refreshed by restoreSegment / the next observation instead of here.
  util::MutexLock lock(mutex_);
  stores_.hashes.recordObservation(kind, hash, segment, firstSeen);
  noteChangeEverywhereLocked();
}

void FlowTracker::attachWal(WriteAheadLog* wal) {
  util::MutexLock lock(mutex_);
  wal_ = wal;
}

bool FlowTracker::walAttached() const {
  util::MutexLock lock(mutex_);
  return wal_ != nullptr;
}

void FlowTracker::replaySegmentObserved(SegmentRecord record) {
  util::MutexLock lock(mutex_);
  // Replay runs with the WAL detached (see attachWal) and the record
  // carries its own timestamps, so nothing is logged or drawn from clock_.
  const SegmentRecord* existing = stores_.segments.findByName(record.name);
  const SegmentId id = existing != nullptr ? existing->id : record.id;
  // A record whose hash set is the stored one moved grams only: the live
  // path left DBhash alone for it (observeSegmentLocked), so replay does
  // too. An imported state need not hold every hash of a fingerprint.
  const bool movedGramsOnly =
      existing != nullptr &&
      existing->fingerprint.sameHashes(record.fingerprint);
  if (!movedGramsOnly) {
    stores_.hashes.recordFingerprint(record.kind, record.fingerprint.hashes(),
                                     id, record.updatedAt);
  }
  if (existing == nullptr) {
    stores_.segments.restore(std::move(record));
  } else {
    stores_.segments.setThreshold(id, record.threshold);
    stores_.segments.updateFingerprint(id, record.fingerprint,
                                       record.updatedAt);
  }
  if (auto it = stores_.cache.find(id); it != stores_.cache.end()) {
    it->second.valid = false;
  }
  noteChangeEverywhereLocked();
  refreshStoreGauges();
}

std::vector<std::pair<std::size_t, std::size_t>>
FlowTracker::attributeDisclosure(SegmentId source,
                                 const text::Fingerprint& target) const {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  util::MutexLock lock(mutex_);
  const SegmentRecord* rec = stores_.segments.find(source);
  if (rec == nullptr || target.empty()) return ranges;
  const HashDb& db = stores_.hashes;
  // Each matched gram covers roughly one n-gram of source text; adjacent
  // matches merge into readable passages. The window guarantee means a
  // copied passage of >= windowChars yields at least one gram here.
  const std::size_t span = config_.fingerprint.ngramChars;
  for (const auto& gram : rec->fingerprint.grams()) {
    if (!target.contains(gram.hash)) continue;
    if (config_.useAuthoritative) {
      const auto oldest = db.oldestSegmentWith(rec->kind, gram.hash);
      if (!oldest || *oldest != source) continue;
    }
    const std::size_t begin = gram.pos;
    const std::size_t end = gram.pos + span;
    if (!ranges.empty() && begin <= ranges.back().second + span) {
      // Merge with the previous range when close (within one n-gram —
      // winnowing only samples, so small gaps are the same passage).
      ranges.back().second = std::max(ranges.back().second, end);
    } else {
      ranges.emplace_back(begin, end);
    }
  }
  return ranges;
}

std::optional<SegmentRecord> FlowTracker::findSegmentWithFingerprint(
    std::string_view document, const text::Fingerprint& fp,
    SegmentKind kind) const {
  if (fp.empty()) return std::nullopt;
  util::MutexLock lock(mutex_);
  std::optional<SegmentRecord> found;
  stores_.segments.forEach([&](const SegmentRecord& rec) {
    if (!found && rec.kind == kind && rec.document == document &&
        rec.fingerprint.sameHashes(fp)) {
      found = rec;
    }
  });
  return found;
}

DisclosureHit FlowTracker::makeHit(const SegmentRecord& source, double score,
                                   std::size_t overlap) const {
  DisclosureHit hit;
  hit.source = source.id;
  hit.kind = source.kind;
  hit.sourceName = source.name;
  hit.sourceDocument = source.document;
  hit.sourceService = source.service;
  hit.score = score;
  hit.overlap = overlap;
  hit.sourceFingerprintSize = source.fingerprint.size();
  hit.threshold = source.threshold;
  return hit;
}

}  // namespace bf::flow
