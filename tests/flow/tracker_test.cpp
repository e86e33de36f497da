// Tests for FlowTracker — Algorithm 1, caching, incremental updates,
// threshold semantics, and the paper's motivating copy/edit scenarios.
#include <gtest/gtest.h>

#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "flow/disclosure.h"
#include "flow/tracker.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace bf::flow {
namespace {

text::Fingerprint fpOf(const std::vector<text::Hash>& hashes) {
  std::vector<text::HashedGram> grams;
  std::uint32_t pos = 0;
  for (auto h : hashes) grams.push_back({h, pos++});
  return text::Fingerprint::fromSelected(std::move(grams));
}

/// Observes segment `id` (its own document) with exactly `hashes` at time
/// `at`, through the WAL replay path that takes a ready fingerprint.
void observeHashes(FlowTracker& tracker, SegmentId id, std::string_view name,
                   const std::vector<text::Hash>& hashes,
                   util::Timestamp at, double threshold = 0.0) {
  SegmentRecord rec;
  rec.id = id;
  rec.name = std::string(name);
  rec.document = std::string(name);
  rec.service = "svc";
  rec.threshold = threshold;
  rec.fingerprint = fpOf(hashes);
  rec.createdAt = at;
  rec.updatedAt = at;
  tracker.replaySegmentObserved(std::move(rec));
}

class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest() : rng_(12345), gen_(&rng_), tracker_(TrackerConfig{}, &clock_) {}

  std::string paragraph() { return gen_.paragraph(5, 8); }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  FlowTracker tracker_;
};

TEST_F(TrackerTest, VerbatimCopyIsDetected) {
  const std::string secret = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "itool/doc#p0",
                          "itool/doc", "itool", secret);
  const auto hits = tracker_.checkText(secret, "gdocs/doc");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sourceName, "itool/doc#p0");
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
}

TEST_F(TrackerTest, UnrelatedTextIsNotDetected) {
  tracker_.observeSegment(SegmentKind::kParagraph, "a#p0", "a", "svc",
                          paragraph());
  EXPECT_TRUE(tracker_.checkText(paragraph(), "b").empty());
}

TEST_F(TrackerTest, PartialCopyAboveThresholdDetected) {
  // Copy a paragraph and append fresh text: the source's hashes are still
  // all present, so D(source, target) stays 1.
  const std::string secret = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          secret);
  const std::string target = secret + " " + paragraph();
  const auto hits = tracker_.checkText(target, "dst");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_GE(hits[0].score, 0.9);
}

TEST_F(TrackerTest, HeavilyRewrittenTextDropsBelowThreshold) {
  // "if text is modified to the point at which it bears no resemblance to
  //  the source text, it becomes safe to disclose" (S1).
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          paragraph());
  EXPECT_TRUE(tracker_.checkText(paragraph(), "dst").empty());
}

TEST_F(TrackerTest, HalfCopyHoversAroundThreshold) {
  const std::string firstHalf = gen_.paragraph(6, 6);
  const std::string secondHalf = gen_.paragraph(6, 6);
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          firstHalf + " " + secondHalf);
  // Exposing only the first half: D ≈ 0.5 of the source fingerprint.
  const auto hits = tracker_.checkText(firstHalf, "dst");
  if (!hits.empty()) {
    EXPECT_GE(hits[0].score, 0.3);
    EXPECT_LE(hits[0].score, 0.75);
  }
}

TEST_F(TrackerTest, SameDocumentSourcesExcluded) {
  const std::string text = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "doc#p0", "doc", "svc",
                          text);
  EXPECT_TRUE(tracker_.checkText(text, "doc").empty());
  EXPECT_FALSE(tracker_.checkText(text, "otherdoc").empty());
}

TEST_F(TrackerTest, SelfSegmentExcluded) {
  const std::string text = paragraph();
  const SegmentId id = tracker_.observeSegment(
      SegmentKind::kParagraph, "doc#p0", "doc", "svc", text);
  // Algorithm 1: "if p = P then continue".
  const auto& hits = tracker_.sourcesForSegment(id);
  EXPECT_TRUE(hits.empty());
}

TEST_F(TrackerTest, CopyBetweenDocumentsFoundBySegmentQuery) {
  const std::string secret = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "wiki/a#p0", "wiki/a",
                          "wiki", secret);
  const SegmentId dest = tracker_.observeSegment(
      SegmentKind::kParagraph, "gdocs/b#p0", "gdocs/b", "gdocs", secret);
  const auto& hits = tracker_.sourcesForSegment(dest);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sourceName, "wiki/a#p0");
  EXPECT_EQ(hits[0].sourceService, "wiki");
}

TEST_F(TrackerTest, UnchangedFingerprintServedFromCache) {
  const std::string secret = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          secret);
  const SegmentId dest = tracker_.observeSegment(
      SegmentKind::kParagraph, "dst#p0", "dst", "svc", secret);
  const testutil::CounterDelta delta;
  (void)tracker_.sourcesForSegment(dest);
  EXPECT_EQ(delta("bf_tracker_cache_hits_total"), 0u);
  (void)tracker_.sourcesForSegment(dest);
  (void)tracker_.sourcesForSegment(dest);
  EXPECT_EQ(delta("bf_tracker_cache_hits_total"), 2u);
  // Only the first call actually ran Algorithm 1.
  EXPECT_EQ(delta("bf_tracker_queries_total"), 1u);
}

TEST_F(TrackerTest, KeystrokeRarelyInvalidatesCache) {
  // "one keystroke typically does not alter the winnowing fingerprint of a
  //  paragraph, permitting BrowserFlow to reuse its previous response".
  const std::string base = gen_.paragraph(8, 8);
  const SegmentId id = tracker_.observeSegment(
      SegmentKind::kParagraph, "doc#p0", "doc", "svc", base);
  (void)tracker_.sourcesForSegment(id);
  std::string text = base;
  std::size_t hits = 0;
  const std::string suffix = " and so it continues onward";
  for (char c : suffix) {
    text += c;
    tracker_.observeSegment(SegmentKind::kParagraph, "doc#p0", "doc", "svc",
                            text);
    const testutil::CounterDelta delta;
    (void)tracker_.sourcesForSegment(id);
    if (delta("bf_tracker_cache_hits_total") > 0) ++hits;
  }
  // Most keystrokes must be served from cache.
  EXPECT_GT(hits, suffix.size() / 2);
}

TEST_F(TrackerTest, EditedSegmentRecomputesAfterFingerprintChange) {
  const std::string secret = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          secret);
  const SegmentId dest = tracker_.observeSegment(
      SegmentKind::kParagraph, "dst#p0", "dst", "svc", paragraph());
  EXPECT_TRUE(tracker_.sourcesForSegment(dest).empty());
  // Paste the secret into the destination paragraph.
  tracker_.observeSegment(SegmentKind::kParagraph, "dst#p0", "dst", "svc",
                          secret);
  EXPECT_FALSE(tracker_.sourcesForSegment(dest).empty());
}

TEST_F(TrackerTest, RemovedSegmentNoLongerReported) {
  const std::string secret = paragraph();
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          secret);
  tracker_.removeSegmentByName("src#p0");
  EXPECT_TRUE(tracker_.checkText(secret, "dst").empty());
}

TEST_F(TrackerTest, ThresholdZeroDetectsAnyLeakedHash) {
  TrackerConfig config;
  config.defaultParagraphThreshold = 0.0;
  FlowTracker tracker(config, &clock_);
  const std::string sensitive = gen_.paragraph(8, 8);
  tracker.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                         sensitive);
  // Take a slice of the source — far below 50% but above one window.
  const std::string slice = sensitive.substr(0, 60);
  const auto hits = tracker.checkText(slice + " " + gen_.paragraph(8, 8),
                                      "dst");
  ASSERT_FALSE(hits.empty());
  EXPECT_LT(hits[0].score, 0.5);
}

TEST_F(TrackerTest, HighThresholdSuppressesPartialMatches) {
  TrackerConfig config;
  config.defaultParagraphThreshold = 0.95;
  FlowTracker tracker(config, &clock_);
  const std::string sensitive = gen_.paragraph(8, 8);
  tracker.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                         sensitive);
  const std::string half = sensitive.substr(0, sensitive.size() / 2);
  EXPECT_TRUE(tracker.checkText(half, "dst").empty());
  EXPECT_FALSE(tracker.checkText(sensitive, "dst").empty());
}

TEST_F(TrackerTest, PerSegmentThresholdOverridesDefault) {
  const std::string a = gen_.paragraph(8, 8);
  const std::string b = gen_.paragraph(8, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "strict#p0", "strict",
                          "svc", a, 0.0);
  tracker_.observeSegment(SegmentKind::kParagraph, "lax#p0", "lax", "svc", b,
                          0.9);
  // A small slice of each: only the strict (T=0) paragraph reports.
  const auto hitsA = tracker_.checkText(a.substr(0, 60), "dst");
  const auto hitsB = tracker_.checkText(b.substr(0, 60), "dst");
  EXPECT_FALSE(hitsA.empty());
  EXPECT_TRUE(hitsB.empty());
}

TEST_F(TrackerTest, DocumentGranularityTrackedIndependently) {
  const std::string doc = paragraph() + "\n\n" + paragraph() + "\n\n" +
                          paragraph();
  const auto obs = tracker_.observeDocument("wiki/page", "wiki", doc);
  EXPECT_EQ(obs.paragraphs.size(), 3u);
  ASSERT_NE(tracker_.segment(obs.document), nullptr);
  EXPECT_EQ(tracker_.segment(obs.document)->kind, SegmentKind::kDocument);

  // Document-kind query sees the document; paragraph query sees paragraphs.
  const auto fp = tracker_.fingerprintOf(doc);
  const auto docHits =
      tracker_.disclosedSources(fp, SegmentKind::kDocument, kInvalidSegment,
                                "elsewhere");
  ASSERT_FALSE(docHits.empty());
  EXPECT_EQ(docHits[0].sourceName, "wiki/page");
}

TEST_F(TrackerTest, HashAuthorityIsPerGranularity) {
  // observeDocument records the document before its paragraphs, so the
  // document holds the older stamp on every hash it shares with them.
  // Authority is per granularity (DESIGN.md §5): the paragraphs still own
  // their hashes as paragraphs, and the document owns them as a document.
  const std::string p1 = paragraph();
  const std::string doc = paragraph() + "\n\n" + p1 + "\n\n" + paragraph();
  const auto src = tracker_.observeDocument("src", "svc", doc);
  ASSERT_EQ(src.paragraphs.size(), 3u);
  const SegmentRecord* para = tracker_.segment(src.paragraphs[1]);
  ASSERT_NE(para, nullptr);
  const text::Hash shared = para->fingerprint.hashes().front();
  const HashDb& db = tracker_.hashDb();
  EXPECT_EQ(db.firstSeen(SegmentKind::kDocument, shared, src.document),
            tracker_.segment(src.document)->updatedAt);
  EXPECT_LT(*db.firstSeen(SegmentKind::kDocument, shared, src.document),
            *db.firstSeen(SegmentKind::kParagraph, shared, src.paragraphs[1]));

  // Pasting one of its paragraphs elsewhere hits the paragraph source.
  const auto paraHits = tracker_.checkText(p1, "dst");
  ASSERT_EQ(paraHits.size(), 1u);
  EXPECT_EQ(paraHits[0].source, src.paragraphs[1]);
  EXPECT_EQ(paraHits[0].kind, SegmentKind::kParagraph);
  EXPECT_GE(paraHits[0].score, 0.9);  // generated paragraphs share n-grams

  // A copy of the whole document elsewhere hits the document source.
  const auto dst = tracker_.observeDocument("dst", "svc", doc);
  const auto docHits = tracker_.sourcesForSegment(dst.document);
  ASSERT_EQ(docHits.size(), 1u);
  EXPECT_EQ(docHits[0].source, src.document);
  EXPECT_EQ(docHits[0].kind, SegmentKind::kDocument);
  EXPECT_DOUBLE_EQ(docHits[0].score, 1.0);  // the oldest document owns all

  // Removing a paragraph moves only the paragraph removal generation, so
  // the cached document answer is still served.
  const std::uint64_t paragraphGen =
      db.removalGeneration(SegmentKind::kParagraph);
  const std::uint64_t documentGen = db.removalGeneration(SegmentKind::kDocument);
  tracker_.removeSegmentByName("src#p2");
  EXPECT_EQ(db.removalGeneration(SegmentKind::kParagraph), paragraphGen + 1);
  EXPECT_EQ(db.removalGeneration(SegmentKind::kDocument), documentGen);
  const testutil::CounterDelta delta;
  const auto cached = tracker_.sourcesForSegment(dst.document);
  EXPECT_EQ(delta("bf_tracker_cache_hits_total"), 1u);
  EXPECT_EQ(delta("bf_tracker_cache_misses_total"), 0u);
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0].source, src.document);
}

TEST_F(TrackerTest, OneSentencePerParagraphDisclosesDocumentNotParagraphs) {
  // The paper's rationale for two granularities (S4.1): leaking one
  // sentence from each paragraph discloses the document while individual
  // paragraph disclosure stays low.
  std::vector<std::string> sentences;
  std::string doc;
  for (int i = 0; i < 6; ++i) {
    std::string s1 = gen_.sentence(12, 14);
    std::string rest = gen_.paragraph(6, 6);
    sentences.push_back(s1);
    if (!doc.empty()) doc += "\n\n";
    doc += s1 + " " + rest;
  }
  // Paragraph authors demand 60% overlap; the document author set a low
  // document threshold because any broad sampling is sensitive.
  tracker_.observeDocument("wiki/page", "wiki", doc, 0.6, 0.08);

  std::string leak;
  for (const auto& s : sentences) leak += s + " ";
  const auto fp = tracker_.fingerprintOf(leak);
  const auto docHits = tracker_.disclosedSources(
      fp, SegmentKind::kDocument, kInvalidSegment, "other");
  const auto paraHits = tracker_.disclosedSources(
      fp, SegmentKind::kParagraph, kInvalidSegment, "other");
  EXPECT_FALSE(docHits.empty()) << "document-level leak missed";
  EXPECT_TRUE(paraHits.empty()) << "paragraph-level should stay quiet";
}

TEST_F(TrackerTest, HitsSortedByScoreDescending) {
  // Two sources with distinct content; the probe contains all of the first
  // and a sliver of the second, so both report with different scores.
  const std::string first = gen_.paragraph(8, 8);
  const std::string second = gen_.paragraph(12, 12);
  tracker_.observeSegment(SegmentKind::kParagraph, "full#p0", "full", "svc",
                          first, 0.0);
  tracker_.observeSegment(SegmentKind::kParagraph, "partial#p0", "partial",
                          "svc", second, 0.0);
  const auto hits =
      tracker_.checkText(first + " " + second.substr(0, 80), "dst");
  ASSERT_GE(hits.size(), 2u);
  EXPECT_GE(hits[0].score, hits[1].score);
  EXPECT_EQ(hits[0].sourceName, "full#p0");
}

TEST_F(TrackerTest, AuthoritativeOffReportsOverlapCopies) {
  // Ablation: without authoritative fingerprints, the Fig. 7 false
  // positive reappears.
  TrackerConfig config;
  config.useAuthoritative = false;
  FlowTracker naive(config, &clock_);

  const std::string a = gen_.paragraph(8, 8);
  // Keep the superset's extra text short so naive containment of B stays
  // above the 0.5 threshold (B = a + extra, D_naive(B) = |F(a)|/|F(B)|).
  const std::string extra = gen_.sentence(8, 10);
  naive.observeSegment(SegmentKind::kParagraph, "A#p0", "A", "svc", a);
  naive.observeSegment(SegmentKind::kParagraph, "B#p0", "B", "svc",
                       a + " " + extra);
  const auto hits = naive.checkText(a, "C");
  // Naive containment blames both A and B.
  EXPECT_EQ(hits.size(), 2u);

  tracker_.observeSegment(SegmentKind::kParagraph, "A#p0", "A", "svc", a);
  tracker_.observeSegment(SegmentKind::kParagraph, "B#p0", "B", "svc",
                          a + " " + extra);
  const auto authHits = tracker_.checkText(a, "C");
  ASSERT_EQ(authHits.size(), 1u);
  EXPECT_EQ(authHits[0].sourceName, "A#p0");
}

TEST_F(TrackerTest, IncrementalMatchesBatchRebuild) {
  // Observing texts incrementally (with edits) must agree with a fresh
  // tracker that only ever saw the final state.
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) texts.push_back(paragraph());

  // Incremental: observe, edit twice, settle on final text.
  for (int i = 0; i < 6; ++i) {
    const std::string name = "doc" + std::to_string(i) + "#p0";
    const std::string docName = "doc" + std::to_string(i);
    tracker_.observeSegment(SegmentKind::kParagraph, name, docName, "svc",
                            texts[static_cast<std::size_t>(i)] + " draft");
    tracker_.observeSegment(SegmentKind::kParagraph, name, docName, "svc",
                            texts[static_cast<std::size_t>(i)]);
  }

  util::LogicalClock freshClock;
  FlowTracker fresh(TrackerConfig{}, &freshClock);
  for (int i = 0; i < 6; ++i) {
    fresh.observeSegment(SegmentKind::kParagraph,
                         "doc" + std::to_string(i) + "#p0",
                         "doc" + std::to_string(i), "svc",
                         texts[static_cast<std::size_t>(i)]);
  }

  // Query both with a paste combining texts[0] and fresh text.
  const std::string probe = texts[0] + " " + paragraph();
  const auto a = tracker_.checkText(probe, "elsewhere");
  const auto b = fresh.checkText(probe, "elsewhere");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sourceName, b[i].sourceName);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST_F(TrackerTest, PairwiseDisclosure) {
  const std::string a = paragraph();
  const SegmentId src = tracker_.observeSegment(SegmentKind::kParagraph,
                                                "a#p0", "a", "svc", a);
  const SegmentId full = tracker_.observeSegment(
      SegmentKind::kParagraph, "b#p0", "b", "svc", a + " " + paragraph());
  const SegmentId none = tracker_.observeSegment(SegmentKind::kParagraph,
                                                 "c#p0", "c", "svc",
                                                 paragraph());
  EXPECT_DOUBLE_EQ(tracker_.pairwiseDisclosure(src, full), 1.0);
  // Unrelated text from the same Zipf vocabulary can share the odd popular
  // passage; the score stays far below any useful threshold.
  EXPECT_LT(tracker_.pairwiseDisclosure(src, none), 0.2);
}

TEST_F(TrackerTest, EmptyTargetFingerprintsNeverMatch) {
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                          paragraph());
  EXPECT_TRUE(tracker_.checkText("tiny", "dst").empty());
  EXPECT_TRUE(tracker_.checkText("", "dst").empty());
}

TEST_F(TrackerTest, StatsCountFingerprints) {
  const testutil::CounterDelta delta;
  tracker_.observeSegment(SegmentKind::kParagraph, "a#p0", "a", "svc",
                          paragraph());
  (void)tracker_.checkText(paragraph(), "b");
  EXPECT_EQ(delta("bf_tracker_fingerprints_computed_total"), 2u);
}

TEST_F(TrackerTest, StaleOwnerCountsOnlyItsCurrentHashes) {
  // DBhash keeps the associations of an overwritten fingerprint, so S is
  // still the oldest owner of hashes 1-3 after its rewrite to {4, 5, 6}.
  // Only the hashes S still contains may count towards its overlap.
  observeHashes(tracker_, 1, "S", {1, 2, 3}, 1);
  observeHashes(tracker_, 1, "S", {4, 5, 6}, 2);
  ASSERT_EQ(tracker_.hashDb().oldestSegmentWith(SegmentKind::kParagraph, 1),
            SegmentId{1});
  const text::Fingerprint target = fpOf({1, 2, 3, 4});
  const auto hits = tracker_.disclosedSources(target, SegmentKind::kParagraph);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sourceName, "S");
  EXPECT_EQ(hits[0].overlap, 1u);
  EXPECT_EQ(hits[0].overlap, authoritativeOverlap(*tracker_.segment(1), target,
                                                  tracker_.hashDb()));
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0 / 3.0);
}

TEST_F(TrackerTest, RemovedOwnerPassesAuthorityToNextLiveOwner) {
  observeHashes(tracker_, 1, "A", {1, 2}, 1);
  observeHashes(tracker_, 2, "B", {1, 2, 3}, 2);
  const text::Fingerprint target = fpOf({1, 2, 3});
  auto hits = tracker_.disclosedSources(target, SegmentKind::kParagraph);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].sourceName, "A");
  EXPECT_EQ(hits[0].overlap, 2u);
  EXPECT_EQ(hits[1].sourceName, "B");
  EXPECT_EQ(hits[1].overlap, 1u);

  // A's associations stay in DBhash until compaction; lookups skip them.
  tracker_.removeSegment(1);
  ASSERT_EQ(tracker_.hashDb().deadSegmentCount(), 1u);
  hits = tracker_.disclosedSources(target, SegmentKind::kParagraph);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sourceName, "B");
  EXPECT_EQ(hits[0].overlap, 3u);
  EXPECT_EQ(hits[0].overlap, authoritativeOverlap(*tracker_.segment(2), target,
                                                  tracker_.hashDb()));
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
}

TEST_F(TrackerTest, QueriesRecordTheirLockWait) {
  const auto lockWaits = [] {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    const obs::MetricValue* m = snap.find("bf_stage_tracker_lock_wait_us");
    return m == nullptr ? std::uint64_t{0} : m->histogram.count;
  };
  const std::uint64_t before = lockWaits();
  (void)tracker_.disclosedSources(fpOf({1, 2}), SegmentKind::kParagraph);
  EXPECT_EQ(lockWaits(), before + 1);
  (void)tracker_.checkText(paragraph(), "b");
  EXPECT_EQ(lockWaits(), before + 2);
}

TEST_F(TrackerTest, DbhashStepsObserveTheirHistograms) {
  // A DBhash doubling and a dead-segment compaction each stall the caller
  // under the tracker lock; each observes its histogram once.
  const auto steps = [](const char* name) {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? std::uint64_t{0} : m->histogram.count;
  };
  const std::uint64_t grows = steps("bf_tracker_dbhash_grow_ms");
  const std::uint64_t compactions = steps("bf_tracker_dbhash_compact_ms");
  // 11 hashes stay below 70% of the first table's 16 slots; the 12th
  // doubles it.
  observeHashes(tracker_, 1, "s1", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1);
  EXPECT_EQ(steps("bf_tracker_dbhash_grow_ms"), grows);
  observeHashes(tracker_, 2, "s2", {12}, 2);
  EXPECT_EQ(steps("bf_tracker_dbhash_grow_ms"), grows + 1);
  // The default threshold tolerates 64 dead segments; the 65th removal
  // compacts.
  for (SegmentId id = 3; id < 3 + 65; ++id) {
    observeHashes(tracker_, id, std::to_string(id), {2}, id);
  }
  const std::uint64_t grown = steps("bf_tracker_dbhash_grow_ms");
  for (SegmentId id = 3; id < 3 + 64; ++id) tracker_.removeSegment(id);
  EXPECT_EQ(steps("bf_tracker_dbhash_compact_ms"), compactions);
  tracker_.removeSegment(3 + 64);
  EXPECT_EQ(steps("bf_tracker_dbhash_compact_ms"), compactions + 1);
  EXPECT_EQ(steps("bf_tracker_dbhash_grow_ms"), grown);
}

TEST(TrackerBoundTest, SourceWithExactlyTheNeededClaimsIsAHit) {
  // A query skips a source whose claim count cannot meet its threshold.
  // Each case's source needs exactly `need` of its `size` hashes in the
  // target. 0.28 * 25 rounds to just above 7 although 7 / 25 >= 0.28, so
  // the bound must divide as the final score does.
  struct Case {
    double threshold;
    std::uint64_t size;
    std::uint64_t need;
  };
  for (const Case c : {Case{0.3, 10, 3}, Case{0.28, 25, 7}, Case{0.5, 4, 2},
                       Case{1.0, 5, 5}, Case{0.0, 6, 1}}) {
    for (const std::uint64_t claimed : {c.need, c.need - 1}) {
      const std::string at = "threshold=" + std::to_string(c.threshold) +
                             " claimed=" + std::to_string(claimed);
      util::LogicalClock clock;
      FlowTracker tracker(TrackerConfig{}, &clock);
      std::vector<text::Hash> source;
      std::vector<text::Hash> target;
      for (text::Hash i = 0; i < c.size; ++i) {
        source.push_back(100 + i);
        if (i < claimed) target.push_back(100 + i);
        // Unowned hashes keep the target past the early discard.
        target.push_back(900 + i);
      }
      observeHashes(tracker, 1, "S", source, 1, c.threshold);
      const testutil::CounterDelta delta;
      const auto hits =
          tracker.disclosedSources(fpOf(target), SegmentKind::kParagraph);
      EXPECT_EQ(delta("bf_tracker_candidates_inspected_total"),
                claimed > 0 ? 1u : 0u)
          << at;
      if (claimed < c.need) {
        EXPECT_TRUE(hits.empty()) << at;
        continue;
      }
      ASSERT_EQ(hits.size(), 1u) << at;
      EXPECT_EQ(hits[0].overlap, c.need) << at;
      EXPECT_EQ(hits[0].score,
                static_cast<double>(c.need) / static_cast<double>(c.size))
          << at;
    }
  }
}

TEST_F(TrackerTest, StaleClaimsClearTheBoundButDoNotScore) {
  // S's first version leaves it the oldest owner of 1-10 after its rewrite
  // to 11-20. Seven claims would meet S's 0.3 threshold, but only the two
  // its current fingerprint holds count.
  observeHashes(tracker_, 1, "S", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 0.3);
  observeHashes(tracker_, 1, "S", {11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
                2, 0.3);
  const testutil::CounterDelta delta;
  EXPECT_TRUE(tracker_
                  .disclosedSources(fpOf({1, 2, 3, 4, 5, 11, 12}),
                                    SegmentKind::kParagraph)
                  .empty());
  EXPECT_EQ(delta("bf_tracker_candidates_inspected_total"), 1u);

  const auto hits = tracker_.disclosedSources(
      fpOf({1, 2, 3, 4, 5, 11, 12, 13}), SegmentKind::kParagraph);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, 3u);
  EXPECT_EQ(hits[0].score, 0.3);
}

}  // namespace
}  // namespace bf::flow
