#include "flow/tracker.h"

#include <algorithm>
#include <thread>

#include "flow/wal.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "text/segmenter.h"
#include "util/hashing.h"

namespace bf::flow {

namespace {

/// Process-wide tracker metrics, resolved once. Per-tracker counters are
/// mirrored here; the gauges report the sizes of the most recently updated
/// tracker's stores (single-tracker processes, the common deployment, see
/// exact values; multi-tracker benches read per-instance stats()).
struct TrackerMetrics {
  obs::Counter* queries;
  obs::Counter* cacheHits;
  obs::Counter* cacheMisses;
  obs::Counter* candidates;
  obs::Counter* fingerprints;
  obs::Gauge* dbhashParagraphHashes;
  obs::Gauge* dbhashDocumentHashes;
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
    out.dbparSegments =
        &r.gauge("bf_tracker_dbpar_segments", "Live segments in DBpar");
    return out;
  }();
  return m;
}

/// observeDocument fans paragraph fingerprinting out across threads once a
/// document is large enough to amortise thread start-up.
constexpr std::size_t kMinParagraphsPerWorker = 4;
constexpr std::size_t kMaxFingerprintWorkers = 8;

}  // namespace

FlowTracker::FlowTracker(TrackerConfig config, util::Clock* clock)
    : config_(config), tape_(clock) {}

FlowTracker::FlowTracker(TrackerConfig config, util::Clock* clock,
                         int lockRank, const char* lockName)
    : config_(config), mutex_(lockRank, lockName), tape_(clock) {}

void FlowTracker::refreshStoreGauges() const noexcept {
  const Stores& s = stores_[static_cast<std::size_t>(lr_.activeInstance())];
  const TrackerMetrics& m = trackerMetrics();
  m.dbhashParagraphHashes->set(static_cast<double>(
      s.hashes[idx(SegmentKind::kParagraph)].distinctHashCount()));
  m.dbhashDocumentHashes->set(static_cast<double>(
      s.hashes[idx(SegmentKind::kDocument)].distinctHashCount()));
  m.dbparSegments->set(static_cast<double>(s.segments.size()));
}

std::uint64_t FlowTracker::digestOf(const text::Fingerprint& fp) {
  // Order-independent-enough digest: hashes() is sorted, so a sequential
  // combine is deterministic for a given hash set.
  std::uint64_t d = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t h : fp.hashes()) d = util::hashCombine(d, h);
  return d ^ fp.size();
}

SegmentId FlowTracker::observeSegment(SegmentKind kind, std::string_view name,
                                      std::string_view document,
                                      std::string_view service,
                                      sec::SensitiveView text,
                                      std::optional<double> threshold) {
  BF_SPAN("flow.observe");
  // Fingerprinting is pure CPU over immutable config: do it before taking
  // the writer mutex so concurrent observers only serialise on the store
  // update.
  text::Fingerprint fp;
  {
    obs::StageTimer fpTimer(obs::Stage::kFingerprint);
    fp = text::fingerprintText(text.raw(), config_.fingerprint);
  }
  stats_.fingerprintsComputed.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().fingerprints->inc();
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  const SegmentId id = mutateStores([&](Stores& s, WriteAheadLog* wal) {
    return observeSegmentIn(s, wal, kind, name, document, service, fp,
                            threshold);
  });
  refreshStoreGauges();
  return id;
}

SegmentId FlowTracker::observeSegmentIn(Stores& s, WriteAheadLog* wal,
                                        SegmentKind kind,
                                        std::string_view name,
                                        std::string_view document,
                                        std::string_view service,
                                        const text::Fingerprint& fp,
                                        std::optional<double> threshold) {
  const double defaultThreshold = kind == SegmentKind::kParagraph
                                      ? config_.defaultParagraphThreshold
                                      : config_.defaultDocumentThreshold;
  const SegmentRecord* existing = s.segments.findByName(name);
  SegmentId id;
  if (existing == nullptr) {
    id = s.segments.create(kind, std::string(name), std::string(document),
                           std::string(service),
                           threshold.value_or(defaultThreshold), tape_.now());
  } else {
    id = existing->id;
    if (threshold) s.segments.setThreshold(id, *threshold);
    // Unchanged fingerprint: nothing to record and the cached disclosure
    // answer stays valid (the per-keystroke fast path of S6.2). A threshold
    // change is still durable state, so it is the one thing logged.
    if (existing->fingerprint.sameHashes(fp)) {
      if (wal != nullptr && threshold) {
        wal->logThresholdChanged(name, *threshold);
      }
      return id;
    }
  }

  const util::Timestamp now = tape_.now();
  HashDb& db = s.hashes[idx(kind)];
  for (std::uint64_t h : fp.hashes()) {
    db.recordObservation(h, id, now);
  }
  s.segments.updateFingerprint(id, fp, now);
  if (auto it = s.cache.find(id); it != s.cache.end()) {
    it->second.valid = false;
  }
  if (wal != nullptr) {
    // Log the POST-mutation record: replaying it recreates the segment with
    // its effective threshold and timestamps, and re-records its hash
    // associations at updatedAt (HashDb idempotency keeps earlier
    // first-seen timestamps, exactly as the live path did).
    if (const SegmentRecord* rec = s.segments.find(id); rec != nullptr) {
      wal->logSegmentObserved(*rec);
    }
  }
  return id;
}

void FlowTracker::observeRoutedBatch(const std::vector<RoutedObserve>& ops) {
  if (ops.empty()) return;
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  mutateStores([&](Stores& s, WriteAheadLog* wal) {
    for (const RoutedObserve& op : ops) observeRoutedIn(s, wal, op);
  });
  refreshStoreGauges();
}

void FlowTracker::observeRoutedIn(Stores& s, WriteAheadLog* wal,
                                  const RoutedObserve& op) {
  const SegmentRecord* existing = s.segments.find(op.id);
  if (existing == nullptr) {
    SegmentRecord rec;
    rec.id = op.id;
    rec.kind = op.kind;
    rec.name = std::string(op.name);
    rec.document = std::string(op.document);
    rec.service = std::string(op.service);
    rec.threshold = op.overrideThreshold.value_or(op.createThreshold);
    rec.tenant = op.tenant;
    const util::Timestamp created = tape_.now();
    rec.createdAt = created;
    rec.updatedAt = created;
    s.segments.restore(std::move(rec));  // explicit id; advances nextId_
  } else {
    if (op.overrideThreshold) {
      s.segments.setThreshold(op.id, *op.overrideThreshold);
    }
    // Unchanged partial fingerprint: same per-keystroke fast path as
    // observeSegmentIn — only an explicit threshold change is durable.
    if (existing->fingerprint.sameHashes(*op.fingerprint)) {
      if (wal != nullptr && op.overrideThreshold) {
        wal->logThresholdChanged(op.name, *op.overrideThreshold);
      }
      return;
    }
  }

  const util::Timestamp now = tape_.now();
  HashDb& db = s.hashes[idx(op.kind)];
  for (std::uint64_t h : op.fingerprint->hashes()) {
    db.recordObservation(h, op.id, now);
  }
  s.segments.updateFingerprint(op.id, *op.fingerprint, now);
  if (auto it = s.cache.find(op.id); it != s.cache.end()) {
    it->second.valid = false;
  }
  if (wal != nullptr) {
    if (const SegmentRecord* rec = s.segments.find(op.id); rec != nullptr) {
      wal->logSegmentObserved(*rec);
    }
  }
}

FlowTracker::DocumentObservation FlowTracker::observeDocument(
    std::string_view docName, std::string_view service,
    sec::SensitiveView fullText, std::optional<double> paragraphThreshold,
    std::optional<double> documentThreshold) {
  BF_SPAN("flow.observe_document");
  const std::uint64_t fpStart = obs::stageStart();
  const auto paras = text::segmentParagraphs(fullText.raw());

  // Fingerprint the document and every paragraph OUTSIDE the lock — pure
  // CPU over immutable config. Large documents fan the paragraphs out over
  // a few threads, each hashing through its own thread-local workspace.
  text::Fingerprint docFp =
      text::fingerprintText(fullText.raw(), config_.fingerprint);
  std::vector<text::Fingerprint> paraFps(paras.size());
  const std::size_t workers =
      std::min({paras.size() / kMinParagraphsPerWorker,
                static_cast<std::size_t>(std::thread::hardware_concurrency()),
                kMaxFingerprintWorkers});
  if (workers > 1) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < paras.size();
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          paraFps[i] =
              text::fingerprintText(paras[i].text, config_.fingerprint);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  } else {
    for (std::size_t i = 0; i < paras.size(); ++i) {
      paraFps[i] = text::fingerprintText(paras[i].text, config_.fingerprint);
    }
  }
  stats_.fingerprintsComputed.fetch_add(paras.size() + 1,
                                        std::memory_order_relaxed);
  trackerMetrics().fingerprints->inc(paras.size() + 1);
  obs::stageEnd(obs::Stage::kFingerprint, fpStart);

  // One writer section applies every store update (to both replicas), then
  // refreshes the gauges once — the lock is taken once, not once per
  // paragraph.
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  DocumentObservation out = mutateStores([&](Stores& s, WriteAheadLog* wal) {
    DocumentObservation o;
    o.paragraphs.reserve(paras.size());
    o.document = observeSegmentIn(s, wal, SegmentKind::kDocument, docName,
                                  docName, service, docFp, documentThreshold);
    for (std::size_t i = 0; i < paras.size(); ++i) {
      std::string pname =
          std::string(docName) + "#p" + std::to_string(paras[i].index);
      o.paragraphs.push_back(observeSegmentIn(s, wal, SegmentKind::kParagraph,
                                              pname, docName, service,
                                              paraFps[i], paragraphThreshold));
    }
    return o;
  });
  refreshStoreGauges();
  return out;
}

void FlowTracker::removeSegmentByName(std::string_view name) {
  util::MutexLock lock(mutex_);
  mutateStores([&](Stores& s, WriteAheadLog* wal) {
    const SegmentRecord* rec = s.segments.findByName(name);
    if (rec != nullptr) removeSegmentIn(s, wal, rec->id);
  });
  refreshStoreGauges();
}

void FlowTracker::removeSegment(SegmentId id) {
  util::MutexLock lock(mutex_);
  mutateStores([&](Stores& s, WriteAheadLog* wal) {
    removeSegmentIn(s, wal, id);
  });
  refreshStoreGauges();
}

void FlowTracker::removeSegmentIn(Stores& s, WriteAheadLog* wal,
                                  SegmentId id) {
  const SegmentRecord* rec = s.segments.find(id);
  if (rec != nullptr) {
    s.hashes[idx(rec->kind)].removeSegment(id);
  } else {
    s.hashes[idx(SegmentKind::kParagraph)].removeSegment(id);
    s.hashes[idx(SegmentKind::kDocument)].removeSegment(id);
  }
  s.segments.remove(id);
  s.cache.erase(id);
  if (wal != nullptr) wal->logSegmentRemoved(id);
}

std::vector<DisclosureHit> FlowTracker::disclosedSources(
    const text::Fingerprint& target, SegmentKind sourceKind, SegmentId self,
    std::string_view selfDocument) const {
  util::LeftRightReadGuard guard(lr_);
  return disclosedSourcesIn(readerStores(guard), target, sourceKind, self,
                            selfDocument);
}

std::vector<DisclosureHit> FlowTracker::disclosedSourcesIn(
    const Stores& st, const text::Fingerprint& target, SegmentKind sourceKind,
    SegmentId self, std::string_view selfDocument) const {
  BF_SPAN("flow.query");
  obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().queries->inc();
  std::vector<DisclosureHit> hits =
      scoreCandidatesIn(st, target, sourceKind, self, selfDocument,
                        std::nullopt);
  std::sort(hits.begin(), hits.end(),
            [](const DisclosureHit& a, const DisclosureHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.source < b.source;
            });
  return hits;
}

std::vector<DisclosureHit> FlowTracker::partialHits(
    const text::Fingerprint& target, SegmentKind sourceKind, SegmentId self,
    std::string_view selfDocument, TenantId tenant) const {
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().queries->inc();
  util::LeftRightReadGuard guard(lr_);
  return scoreCandidatesIn(readerStores(guard), target, sourceKind, self,
                           selfDocument, tenant);
}

std::vector<DisclosureHit> FlowTracker::scoreCandidatesIn(
    const Stores& st, const text::Fingerprint& target, SegmentKind sourceKind,
    SegmentId self, std::string_view selfDocument,
    std::optional<TenantId> tenant) const {
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
  const HashDb& db = st.hashes[idx(sourceKind)];
  std::vector<std::pair<SegmentId, std::uint64_t>> claims;
  claims.reserve(target.size());
  for (std::uint64_t h : target.hashes()) {
    if (!config_.useAuthoritative) {
      for (SegmentId s : db.segmentsWith(h)) claims.emplace_back(s, h);
    } else if (const auto owner = db.oldestSegmentWith(h)) {
      claims.emplace_back(*owner, h);
    }
  }
  std::sort(claims.begin(), claims.end());

  for (auto next = claims.begin(); next != claims.end();) {
    const SegmentId c = next->first;
    const auto first = next;  // [first, next) are c's claims
    next = std::find_if(first, claims.end(),
                        [c](const auto& claim) { return claim.first != c; });
    if (c == self) continue;  // "if p = P then continue"
    const SegmentRecord* rec = st.segments.find(c);
    if (rec == nullptr || rec->kind != sourceKind) continue;
    if (tenant && rec->tenant != *tenant) continue;  // cross-tenant isolation
    if (config_.excludeSameDocument && !selfDocument.empty() &&
        rec->document == selfDocument) {
      continue;
    }
    stats_.candidatesInspected.fetch_add(1, std::memory_order_relaxed);
    trackerMetrics().candidates->inc();
    const std::size_t sourceSize = rec->fingerprint.size();
    // Early discard (Algorithm 1): a source needing more overlapping hashes
    // than the target has cannot meet its threshold. A partial query leaves
    // this and the thresholds to the facade's cross-shard totals.
    if (!tenant &&
        (sourceSize == 0 || static_cast<double>(sourceSize) * rec->threshold >
                                static_cast<double>(target.size()))) {
      continue;
    }
    // Authoritative overlap counted from the target side: the hashes this
    // source owns that its CURRENT fingerprint still contains (DBhash keeps
    // the associations of overwritten fingerprints) — the set
    // authoritativeOverlap counts, without walking all of F(source).
    const std::size_t overlap =
        config_.useAuthoritative
            ? static_cast<std::size_t>(std::count_if(
                  first, next,
                  [rec](const auto& claim) {
                    return rec->fingerprint.contains(claim.second);
                  }))
            : text::Fingerprint::intersectionSize(rec->fingerprint, target);
    if (tenant) {
      if (overlap > 0) hits.push_back(makeHit(*rec, 0.0, overlap));
      continue;
    }
    const double score =
        static_cast<double>(overlap) / static_cast<double>(sourceSize);
    if (isDisclosed(score, overlap, rec->threshold)) {
      hits.push_back(makeHit(*rec, score, overlap));
    }
  }
  return hits;
}

std::vector<DisclosureHit> FlowTracker::partialHitsForSegment(
    SegmentId id) const {
  util::LeftRightReadGuard guard(lr_);
  const Stores& st = readerStores(guard);
  const SegmentRecord* rec = st.segments.find(id);
  if (rec == nullptr) return {};
  return scoreCandidatesIn(st, rec->fingerprint, rec->kind, id,
                           rec->document, rec->tenant);
}

std::size_t FlowTracker::segmentFingerprintSize(SegmentId id) const {
  util::LeftRightReadGuard guard(lr_);
  const SegmentRecord* rec = readerStores(guard).segments.find(id);
  return rec == nullptr ? 0 : rec->fingerprint.size();
}

std::pair<std::size_t, std::size_t> FlowTracker::partialPairwise(
    SegmentId source, SegmentId target) const {
  util::LeftRightReadGuard guard(lr_);
  const Stores& st = readerStores(guard);
  const SegmentRecord* src = st.segments.find(source);
  const SegmentRecord* tgt = st.segments.find(target);
  if (src == nullptr || tgt == nullptr) return {0, 0};
  std::size_t overlap;
  if (config_.useAuthoritative) {
    overlap =
        authoritativeOverlap(*src, tgt->fingerprint, st.hashes[idx(src->kind)]);
  } else {
    overlap = text::Fingerprint::intersectionSize(src->fingerprint,
                                                  tgt->fingerprint);
  }
  return {overlap, src->fingerprint.size()};
}

std::vector<std::size_t> FlowTracker::matchedGramPositions(
    SegmentId source, const text::Fingerprint& target) const {
  std::vector<std::size_t> positions;
  util::LeftRightReadGuard guard(lr_);
  const Stores& st = readerStores(guard);
  const SegmentRecord* rec = st.segments.find(source);
  if (rec == nullptr || target.empty()) return positions;
  const HashDb& db = st.hashes[idx(rec->kind)];
  for (const auto& gram : rec->fingerprint.grams()) {
    if (!target.contains(gram.hash)) continue;
    if (config_.useAuthoritative) {
      const auto oldest = db.oldestSegmentWith(gram.hash);
      if (!oldest || *oldest != source) continue;
    }
    positions.push_back(gram.pos);
  }
  return positions;
}

FlowTracker::StoreSizes FlowTracker::storeSizes() const {
  util::LeftRightReadGuard guard(lr_);
  const Stores& st = readerStores(guard);
  return {st.hashes[idx(SegmentKind::kParagraph)].distinctHashCount(),
          st.hashes[idx(SegmentKind::kDocument)].distinctHashCount(),
          st.segments.size()};
}

std::optional<SegmentRecord> FlowTracker::segmentCopy(SegmentId id) const {
  util::LeftRightReadGuard guard(lr_);
  const SegmentRecord* rec = readerStores(guard).segments.find(id);
  if (rec == nullptr) return std::nullopt;
  return *rec;
}

std::vector<DisclosureHit> FlowTracker::checkText(
    sec::SensitiveView text, std::string_view excludeDocument) const {
  BF_SPAN("flow.check_text");
  const std::uint64_t fpStart = obs::stageStart();
  const text::Fingerprint fp =
      text::fingerprintText(text.raw(), config_.fingerprint);
  obs::stageEnd(obs::Stage::kFingerprint, fpStart);
  stats_.fingerprintsComputed.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().fingerprints->inc();
  util::LeftRightReadGuard guard(lr_);
  return disclosedSourcesIn(readerStores(guard), fp, SegmentKind::kParagraph,
                            kInvalidSegment, excludeDocument);
}

std::vector<DisclosureHit> FlowTracker::sourcesForSegment(SegmentId id) {
  if (config_.enableCache) {
    // Fast path: a lock-free left-right read — an unchanged fingerprint
    // serves the cached answer without any mutex, so concurrent cached
    // queries neither serialise nor wait for writers (the per-keystroke
    // common case of S6.2).
    obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
    util::LeftRightReadGuard guard(lr_);
    const Stores& st = readerStores(guard);
    const SegmentRecord* rec = st.segments.find(id);
    if (rec == nullptr) return {};
    const auto it = st.cache.find(id);
    if (it != st.cache.end() && it->second.valid &&
        it->second.fingerprintDigest == digestOf(rec->fingerprint) &&
        it->second.removalGeneration ==
            st.hashes[idx(rec->kind)].removalGeneration()) {
      stats_.cacheHits.fetch_add(1, std::memory_order_relaxed);
      trackerMetrics().cacheHits->inc();
      return it->second.hits;
    }
  }

  // Miss (or cache disabled): recompute from the active replica under the
  // writer mutex, then install the entry into both replicas. The stores may
  // have changed since the guard was dropped, so everything is re-read —
  // including the cache entry another thread may just have filled.
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(mutex_);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  const Stores& active =
      stores_[static_cast<std::size_t>(lr_.activeInstance())];
  const SegmentRecord* rec = active.segments.find(id);
  if (rec == nullptr) return {};

  const std::uint64_t digest = digestOf(rec->fingerprint);
  const std::uint64_t removalGen =
      active.hashes[idx(rec->kind)].removalGeneration();
  if (config_.enableCache) {
    const auto it = active.cache.find(id);
    if (it != active.cache.end() && it->second.valid &&
        it->second.fingerprintDigest == digest &&
        it->second.removalGeneration == removalGen) {
      stats_.cacheHits.fetch_add(1, std::memory_order_relaxed);
      trackerMetrics().cacheHits->inc();
      return it->second.hits;
    }
  }
  stats_.cacheMisses.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().cacheMisses->inc();
  std::vector<DisclosureHit> hits = disclosedSourcesIn(
      active, rec->fingerprint, rec->kind, id, rec->document);
  // The fill only touches the replicated cache maps, never the segment and
  // hash tables `rec` points into, so `rec`/`active` stay valid across it.
  mutateStores([&](Stores& s, WriteAheadLog*) {
    CacheEntry& entry = s.cache[id];
    entry.hits = hits;
    entry.fingerprintDigest = digest;
    entry.removalGeneration = removalGen;
    entry.valid = true;
  });
  return hits;
}

double FlowTracker::pairwiseDisclosure(SegmentId source,
                                       SegmentId target) const {
  util::LeftRightReadGuard guard(lr_);
  const Stores& st = readerStores(guard);
  const SegmentRecord* src = st.segments.find(source);
  const SegmentRecord* tgt = st.segments.find(target);
  if (src == nullptr || tgt == nullptr) return 0.0;
  if (config_.useAuthoritative) {
    return disclosureScore(*src, tgt->fingerprint, st.hashes[idx(src->kind)]);
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
  return mutateStores([&](Stores& s, WriteAheadLog* wal) {
    const SegmentRecord* rec = s.segments.findByName(name);
    if (rec == nullptr) return false;
    s.segments.setThreshold(rec->id, threshold);
    // A source's threshold changes every other segment's query outcome.
    s.cache.clear();
    if (wal != nullptr) wal->logThresholdChanged(name, threshold);
    return true;
  });
}

std::size_t FlowTracker::evictAssociationsOlderThan(util::Timestamp cutoff) {
  util::MutexLock lock(mutex_);
  const std::size_t dropped =
      mutateStores([&](Stores& s, WriteAheadLog* wal) {
        std::size_t n = 0;
        n += s.hashes[idx(SegmentKind::kParagraph)].evictOlderThan(cutoff);
        n += s.hashes[idx(SegmentKind::kDocument)].evictOlderThan(cutoff);
        s.cache.clear();  // authority may have shifted wholesale
        if (wal != nullptr) wal->logAssociationsEvicted(cutoff);
        return n;
      });
  refreshStoreGauges();
  return dropped;
}

void FlowTracker::restoreSegment(SegmentRecord record) {
  util::MutexLock lock(mutex_);
  mutateStores([&](Stores& s, WriteAheadLog* wal) {
    if (wal != nullptr) wal->logSegmentObserved(record);
    s.segments.restore(record);  // by-value copy; applied to both replicas
  });
  refreshStoreGauges();
}

void FlowTracker::restoreAssociation(SegmentKind kind, std::uint64_t hash,
                                     SegmentId segment,
                                     util::Timestamp firstSeen,
                                     util::Timestamp lastSeen) {
  // Called once per association during snapshot import; the store gauges
  // are refreshed by restoreSegment / the next observation instead of here.
  util::MutexLock lock(mutex_);
  mutateStores([&](Stores& s, WriteAheadLog* wal) {
    s.hashes[idx(kind)].recordObservation(hash, segment, firstSeen, lastSeen);
    if (wal != nullptr) {
      wal->logAssociationAdded(kind, hash, segment, firstSeen, lastSeen);
    }
  });
}

void FlowTracker::attachWal(WriteAheadLog* wal) {
  util::MutexLock lock(mutex_);
  wal_ = wal;
}

void FlowTracker::replaySegmentObserved(SegmentRecord record) {
  util::MutexLock lock(mutex_);
  // Replay runs with the WAL detached (see attachWal); the record already
  // carries its timestamps, so the closure draws nothing from the tape and
  // both replica applications are trivially identical.
  mutateStores([&](Stores& s, WriteAheadLog*) {
    const SegmentRecord* existing = s.segments.findByName(record.name);
    const SegmentId id = existing != nullptr ? existing->id : record.id;
    HashDb& db = s.hashes[idx(record.kind)];
    for (std::uint64_t h : record.fingerprint.hashes()) {
      db.recordObservation(h, id, record.updatedAt);
    }
    if (existing == nullptr) {
      s.segments.restore(record);
    } else {
      s.segments.setThreshold(id, record.threshold);
      s.segments.updateFingerprint(id, record.fingerprint, record.updatedAt);
    }
    if (auto it = s.cache.find(id); it != s.cache.end()) {
      it->second.valid = false;
    }
  });
  refreshStoreGauges();
}

std::vector<std::pair<std::size_t, std::size_t>>
FlowTracker::attributeDisclosure(SegmentId source,
                                 const text::Fingerprint& target) const {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  util::LeftRightReadGuard guard(lr_);
  const Stores& st = readerStores(guard);
  const SegmentRecord* rec = st.segments.find(source);
  if (rec == nullptr || target.empty()) return ranges;
  const HashDb& db = st.hashes[idx(rec->kind)];
  // Each matched gram covers roughly one n-gram of source text; adjacent
  // matches merge into readable passages. The window guarantee means a
  // copied passage of >= windowChars yields at least one gram here.
  const std::size_t span = config_.fingerprint.ngramChars;
  for (const auto& gram : rec->fingerprint.grams()) {
    if (!target.contains(gram.hash)) continue;
    if (config_.useAuthoritative) {
      const auto oldest = db.oldestSegmentWith(gram.hash);
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
  util::LeftRightReadGuard guard(lr_);
  std::optional<SegmentRecord> found;
  readerStores(guard).segments.forEach([&](const SegmentRecord& rec) {
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
