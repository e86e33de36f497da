// Property-style tests on FlowTracker invariants, parameterized over
// fingerprint configurations and thresholds (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "flow/disclosure.h"
#include "flow/tracker.h"
#include "text/segmenter.h"
#include "util/clock.h"

namespace bf::flow {
namespace {

// ---- Verbatim copies are detected under every sane configuration -------------

class VerbatimDetection
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(VerbatimDetection, CopyOfTrackedParagraphAlwaysReported) {
  const auto [ngram, window, tpar] = GetParam();
  TrackerConfig config;
  config.fingerprint.ngramChars = ngram;
  config.fingerprint.windowChars = window;
  config.defaultParagraphThreshold = tpar;

  util::Rng rng(ngram * 1000 + window * 10 + static_cast<int>(tpar * 10));
  corpus::TextGenerator gen(&rng);
  for (int trial = 0; trial < 5; ++trial) {
    // Fresh tracker per trial: with a single source, the authoritative
    // fingerprint is the full fingerprint, so a verbatim copy scores
    // exactly 1 under every configuration. (With many sources, popular
    // passages shift authority to older segments — covered elsewhere.)
    util::LogicalClock clock;
    FlowTracker tracker(config, &clock);
    const std::string text = gen.paragraph(6, 9);
    const std::string name = "src" + std::to_string(trial) + "#p0";
    tracker.observeSegment(SegmentKind::kParagraph, name,
                           "srcdoc" + std::to_string(trial), "svc", text);
    const auto hits = tracker.checkText(text, "probe");
    ASSERT_FALSE(hits.empty()) << "verbatim copy missed, trial " << trial;
    EXPECT_EQ(hits[0].sourceName, name);
    EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
  }
}

TEST(TrackerProperties, PopularTextShiftsAuthorityToOldestSegment) {
  // The inherent recall limit of authoritative fingerprints (paper S6.2's
  // "popular text passages" remark): a paragraph whose hashes were all
  // seen earlier elsewhere scores below 1 — authority belongs to history.
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(123);
  corpus::TextGenerator gen(&rng);
  const std::string shared = gen.paragraph(8, 8);
  tracker.observeSegment(SegmentKind::kParagraph, "first#p0", "first", "svc",
                         shared);
  tracker.observeSegment(SegmentKind::kParagraph, "second#p0", "second",
                         "svc", shared);
  const SegmentId second = tracker.segmentByName("second#p0")->id;
  const SegmentId probe = tracker.observeSegment(
      SegmentKind::kParagraph, "probe#p0", "probe", "svc", shared);
  // The probe's disclosure is attributed to "first", never "second".
  const auto& hits = tracker.sourcesForSegment(probe);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sourceName, "first#p0");
  EXPECT_DOUBLE_EQ(tracker.pairwiseDisclosure(second, probe), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, VerbatimDetection,
    ::testing::Values(std::make_tuple(8, 16, 0.5),
                      std::make_tuple(15, 30, 0.0),
                      std::make_tuple(15, 30, 0.5),
                      std::make_tuple(15, 30, 1.0),
                      std::make_tuple(15, 45, 0.5),
                      std::make_tuple(25, 50, 0.8)));

// ---- Scores are well-formed ----------------------------------------------------

class ScoreBounds : public ::testing::TestWithParam<double> {};

TEST_P(ScoreBounds, ScoresAlwaysInUnitIntervalAndAboveThreshold) {
  const double tpar = GetParam();
  util::LogicalClock clock;
  TrackerConfig config;
  config.defaultParagraphThreshold = tpar;
  FlowTracker tracker(config, &clock);
  util::Rng rng(static_cast<std::uint64_t>(tpar * 100) + 7);
  corpus::TextGenerator gen(&rng);

  std::vector<std::string> sources;
  for (int i = 0; i < 10; ++i) {
    sources.push_back(gen.paragraph(5, 8));
    const std::string id = std::to_string(i);
    tracker.observeSegment(SegmentKind::kParagraph, "s" + id + "#p0",
                           "d" + id, "svc", sources.back());
  }
  // Probes mixing slices of several sources.
  for (int t = 0; t < 10; ++t) {
    std::string probe = sources[static_cast<std::size_t>(t) % 10].substr(
        0, 40 + 15 * static_cast<std::size_t>(t));
    probe += " ";
    probe += gen.sentence();
    for (const auto& hit : tracker.checkText(probe, "probe")) {
      EXPECT_GE(hit.score, 0.0);
      EXPECT_LE(hit.score, 1.0);
      EXPECT_GE(hit.score, hit.threshold);
      EXPECT_GT(hit.overlap, 0u);
      EXPECT_LE(hit.overlap, hit.sourceFingerprintSize);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, ScoreBounds,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// ---- Growing a probe never loses an established full-disclosure source --------

TEST(TrackerProperties, AppendingTextKeepsFullDisclosureApproximately) {
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(99);
  corpus::TextGenerator gen(&rng);
  const std::string secret = gen.paragraph(8, 10);
  tracker.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                         secret);
  std::string probe = secret;
  for (int i = 0; i < 6; ++i) {
    probe += " ";
    probe += gen.sentence();
    const auto hits = tracker.checkText(probe, "probe");
    ASSERT_FALSE(hits.empty()) << "after " << i << " appended sentences";
    // Winnowing selections near the splice can shift; tolerate a small dip.
    EXPECT_GE(hits[0].score, 0.9);
  }
}

// ---- Removing then re-observing keeps the tracker consistent -------------------

TEST(TrackerProperties, RemoveReobserveCycleStable) {
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(3);
  corpus::TextGenerator gen(&rng);
  const std::string text = gen.paragraph(7, 9);
  for (int cycle = 0; cycle < 5; ++cycle) {
    tracker.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", text);
    ASSERT_FALSE(tracker.checkText(text, "probe").empty()) << cycle;
    tracker.removeSegmentByName("s#p0");
    ASSERT_TRUE(tracker.checkText(text, "probe").empty()) << cycle;
  }
}

// ---- findSegmentWithFingerprint --------------------------------------------------

TEST(TrackerProperties, FindSegmentWithFingerprintMatchesExactly) {
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(4);
  corpus::TextGenerator gen(&rng);
  const std::string a = gen.paragraph(6, 8);
  const std::string b = gen.paragraph(6, 8);
  tracker.observeSegment(SegmentKind::kParagraph, "doc#p0", "doc", "svc", a);
  tracker.observeSegment(SegmentKind::kParagraph, "doc#p1", "doc", "svc", b);

  const std::optional<SegmentRecord> hit =
      tracker.findSegmentWithFingerprint("doc", tracker.fingerprintOf(a));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "doc#p0");
  // Different document: no match.
  EXPECT_FALSE(tracker
                   .findSegmentWithFingerprint("other",
                                               tracker.fingerprintOf(a))
                   .has_value());
  // Unrelated text: no match.
  EXPECT_FALSE(tracker
                   .findSegmentWithFingerprint(
                       "doc", tracker.fingerprintOf(gen.paragraph(6, 8)))
                   .has_value());
  // Empty fingerprint never matches.
  EXPECT_FALSE(tracker
                   .findSegmentWithFingerprint("doc",
                                               tracker.fingerprintOf("x"))
                   .has_value());
}

TEST(TrackerProperties, ObserveDocumentAppliesThresholdOverrides) {
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(5);
  corpus::TextGenerator gen(&rng);
  const std::string text = gen.paragraph(5, 7) + "\n\n" + gen.paragraph(5, 7);
  const auto obs = tracker.observeDocument("doc", "svc", text, 0.2, 0.9);
  EXPECT_DOUBLE_EQ(tracker.segment(obs.document)->threshold, 0.9);
  for (SegmentId pid : obs.paragraphs) {
    EXPECT_DOUBLE_EQ(tracker.segment(pid)->threshold, 0.2);
  }
}

TEST(TrackerProperties, ObserveDocumentEquivalentToSegmentLoop) {
  // The batched path (fingerprints outside the lock, possibly in parallel,
  // one exclusive apply) must produce exactly the state the old
  // one-observeSegment-per-segment loop produced: same names, kinds,
  // thresholds, fingerprints, and query answers.
  util::Rng rng(17);
  corpus::TextGenerator gen(&rng);
  std::string doc;
  for (int p = 0; p < 10; ++p) {  // 10 paragraphs: enough to fan out on
    if (!doc.empty()) doc += "\n\n";  // multicore machines
    doc += gen.paragraph(3 + p % 4, 8);
  }

  util::LogicalClock clockA;
  FlowTracker batched(TrackerConfig{}, &clockA);
  testutil::CounterDelta fingerprints;
  const auto obs = batched.observeDocument("doc", "svc", doc, 0.3, 0.1);
  const std::uint64_t batchedFingerprints =
      fingerprints("bf_tracker_fingerprints_computed_total");

  util::LogicalClock clockB;
  FlowTracker looped(TrackerConfig{}, &clockB);
  const auto paras = text::segmentParagraphs(doc);
  ASSERT_EQ(obs.paragraphs.size(), paras.size());
  fingerprints.restart();
  looped.observeSegment(SegmentKind::kDocument, "doc", "doc", "svc", doc,
                        0.1);
  for (const auto& para : paras) {
    looped.observeSegment(SegmentKind::kParagraph,
                          "doc#p" + std::to_string(para.index), "doc", "svc",
                          para.text, 0.3);
  }
  const std::uint64_t loopedFingerprints =
      fingerprints("bf_tracker_fingerprints_computed_total");

  // Identical per-segment state...
  for (std::size_t i = 0; i <= paras.size(); ++i) {
    const SegmentId id = i == 0 ? obs.document : obs.paragraphs[i - 1];
    const SegmentRecord* a = batched.segment(id);
    ASSERT_NE(a, nullptr);
    const SegmentRecord* b = looped.segmentByName(a->name);
    ASSERT_NE(b, nullptr) << a->name;
    EXPECT_EQ(a->kind, b->kind);
    EXPECT_EQ(a->document, b->document);
    EXPECT_EQ(a->service, b->service);
    EXPECT_DOUBLE_EQ(a->threshold, b->threshold);
    EXPECT_TRUE(a->fingerprint.sameHashes(b->fingerprint)) << a->name;
  }
  EXPECT_EQ(batchedFingerprints, loopedFingerprints);

  // ...and identical query answers for a probe against each paragraph.
  for (const auto& para : paras) {
    const auto hitsA = batched.checkText(para.text, "probe");
    const auto hitsB = looped.checkText(para.text, "probe");
    ASSERT_EQ(hitsA.size(), hitsB.size());
    for (std::size_t i = 0; i < hitsA.size(); ++i) {
      EXPECT_EQ(hitsA[i].sourceName, hitsB[i].sourceName);
      EXPECT_DOUBLE_EQ(hitsA[i].score, hitsB[i].score);
    }
  }
}

TEST(TrackerProperties, SetSegmentThresholdChangesDetectionAndDropsCache) {
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(21);
  corpus::TextGenerator gen(&rng);
  const std::string sensitive = gen.paragraph(8, 8);
  tracker.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                         sensitive);
  const SegmentId probe = tracker.observeSegment(
      SegmentKind::kParagraph, "probe#p0", "probe", "svc",
      sensitive.substr(0, sensitive.size() / 3) + " " + gen.paragraph(8, 8));

  // A one-third slice is below the default 0.5 threshold.
  EXPECT_TRUE(tracker.sourcesForSegment(probe).empty());
  // The author tightens the source's threshold to "any leak".
  ASSERT_TRUE(tracker.setSegmentThreshold("src#p0", 0.0));
  EXPECT_FALSE(tracker.sourcesForSegment(probe).empty())
      << "cached empty answer must not survive the threshold change";
  // And relaxes it again.
  ASSERT_TRUE(tracker.setSegmentThreshold("src#p0", 0.99));
  EXPECT_TRUE(tracker.sourcesForSegment(probe).empty());
  EXPECT_FALSE(tracker.setSegmentThreshold("ghost", 0.5));
}

TEST(TrackerProperties, ReobserveThresholdChangeOnUnchangedTextDropsCache) {
  util::LogicalClock clock;
  FlowTracker tracker(TrackerConfig{}, &clock);
  util::Rng rng(21);
  corpus::TextGenerator gen(&rng);
  const std::string sensitive = gen.paragraph(8, 8);
  tracker.observeDocument("src", "svc", sensitive);
  const SegmentId probe = tracker.observeSegment(
      SegmentKind::kParagraph, "probe#p0", "probe", "svc",
      sensitive.substr(0, sensitive.size() / 3) + " " + gen.paragraph(8, 8));

  // A one-third slice is below the default 0.5 threshold.
  EXPECT_TRUE(tracker.sourcesForSegment(probe).empty());
  // Re-observing the unchanged source with a tighter paragraph threshold
  // changes the probe's answer, so the cached empty answer must go.
  tracker.observeDocument("src", "svc", sensitive, /*paragraphThreshold=*/0.0);
  EXPECT_FALSE(tracker.sourcesForSegment(probe).empty())
      << "cached empty answer must not survive the threshold change";
  // The same threshold again changes nothing and keeps the cache warm.
  const testutil::CounterDelta delta;
  tracker.observeDocument("src", "svc", sensitive, /*paragraphThreshold=*/0.0);
  EXPECT_FALSE(tracker.sourcesForSegment(probe).empty());
  EXPECT_EQ(delta("bf_tracker_cache_hits_total"), 1u);
}

TEST(TrackerProperties, CacheDisabledStillCorrect) {
  util::LogicalClock clock;
  TrackerConfig config;
  config.enableCache = false;
  FlowTracker tracker(config, &clock);
  util::Rng rng(6);
  corpus::TextGenerator gen(&rng);
  const std::string secret = gen.paragraph(7, 9);
  tracker.observeSegment(SegmentKind::kParagraph, "src#p0", "src", "svc",
                         secret);
  const SegmentId dst = tracker.observeSegment(SegmentKind::kParagraph,
                                               "dst#p0", "dst", "svc", secret);
  const testutil::CounterDelta delta;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(tracker.sourcesForSegment(dst).size(), 1u);
  }
  EXPECT_EQ(delta("bf_tracker_cache_hits_total"), 0u);
}

// ---- Candidate scoring agrees with the authoritativeOverlap oracle ---------

/// Algorithm 1 as the paper states it: every oldest owner of a target hash
/// is a candidate (every segment sharing a hash, with authority off), and
/// each candidate is scored by walking its own fingerprint through
/// authoritativeOverlap (plain intersection with authority off). The
/// tracker counts the same overlap from the target's side; this is the
/// answer it must reproduce, including how many candidates it inspects.
struct ReferenceAnswer {
  std::vector<DisclosureHit> hits;
  std::uint64_t candidates = 0;
};

ReferenceAnswer referenceQuery(const FlowTracker& tracker,
                               const text::Fingerprint& target,
                               SegmentKind kind, SegmentId self,
                               std::string_view selfDocument) {
  ReferenceAnswer out;
  const TrackerConfig& config = tracker.config();
  const HashDb& db = tracker.hashDb();
  std::set<SegmentId> candidates;
  for (text::Hash h : target.hashes()) {
    if (config.useAuthoritative) {
      if (const auto owner = db.oldestSegmentWith(kind, h)) candidates.insert(*owner);
    } else {
      for (SegmentId s : db.segmentsWith(kind, h)) candidates.insert(s);
    }
  }
  for (SegmentId c : candidates) {
    if (c == self) continue;
    const SegmentRecord* rec = tracker.segment(c);
    if (rec == nullptr || rec->kind != kind) continue;
    if (!selfDocument.empty() && rec->document == selfDocument) continue;
    ++out.candidates;
    const std::size_t size = rec->fingerprint.size();
    if (size == 0 || static_cast<double>(size) * rec->threshold >
                         static_cast<double>(target.size())) {
      continue;
    }
    const std::size_t overlap =
        config.useAuthoritative
            ? authoritativeOverlap(*rec, target, db)
            : text::Fingerprint::intersectionSize(rec->fingerprint, target);
    const double score =
        static_cast<double>(overlap) / static_cast<double>(size);
    if (!isDisclosed(score, overlap, rec->threshold)) continue;
    DisclosureHit hit;
    hit.source = c;
    hit.sourceName = rec->name;
    hit.score = score;
    hit.overlap = overlap;
    hit.sourceFingerprintSize = size;
    hit.threshold = rec->threshold;
    out.hits.push_back(std::move(hit));
  }
  std::sort(out.hits.begin(), out.hits.end(),
            [](const DisclosureHit& a, const DisclosureHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.source < b.source;
            });
  return out;
}

/// Same sources, overlaps, scores and order.
void expectSameHits(const std::vector<DisclosureHit>& actual,
                    const std::vector<DisclosureHit>& expected,
                    const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].sourceName, expected[i].sourceName) << where;
    EXPECT_EQ(actual[i].overlap, expected[i].overlap) << where;
    EXPECT_EQ(actual[i].score, expected[i].score) << where;
    EXPECT_EQ(actual[i].sourceFingerprintSize,
              expected[i].sourceFingerprintSize)
        << where;
    EXPECT_EQ(actual[i].threshold, expected[i].threshold) << where;
  }
}

/// The shared sentences a seed's history and probes are built from.
std::vector<std::string> sentencePool(std::uint64_t seed) {
  util::Rng rng(seed);
  corpus::TextGenerator gen(&rng);
  std::vector<std::string> pool;
  for (int i = 0; i < 30; ++i) pool.push_back(gen.sentence());
  return pool;
}

/// One step of a random store history.
struct StoreOp {
  enum Kind { kObserve, kRemove, kObserveDocument } kind = kObserve;
  std::string name;      // segment name (the document's for kObserveDocument)
  std::string document;
  std::string text;
  std::optional<double> threshold;
};

/// A seeded history over a small shared sentence pool, so segments overlap
/// heavily and authority moves between them. Names are reused: observing a
/// live name overwrites its text (leaving its old hashes' associations in
/// DBhash), and a removed name may come back as a new segment. Runs until
/// `removals` paragraph segments have been removed.
std::vector<StoreOp> randomHistory(std::uint64_t seed, std::size_t removals) {
  const std::vector<std::string> pool = sentencePool(seed);
  util::Rng rng(seed * 7 + 1);
  corpus::TextGenerator gen(&rng);
  const std::vector<double> thresholds = {0.0, 0.2, 0.5, 1.0};
  const auto paragraphText = [&] {
    std::string text = rng.pick(pool);
    for (std::uint64_t n = rng.uniform(1, 3); n > 0; --n) {
      text += " " + (rng.uniform(0, 3) == 0 ? gen.sentence() : rng.pick(pool));
    }
    return text;
  };
  const auto maybeThreshold = [&]() -> std::optional<double> {
    if (rng.uniform(0, 2) != 0) return std::nullopt;
    return rng.pick(thresholds);
  };

  std::vector<StoreOp> ops;
  std::set<std::string> live;
  std::size_t removed = 0;
  while (removed < removals) {
    const std::uint64_t roll = rng.uniform(0, 19);
    StoreOp op;
    if (roll == 0) {
      const std::string doc = "book" + std::to_string(rng.uniform(0, 3));
      op.kind = StoreOp::kObserveDocument;
      op.name = doc;
      op.document = doc;
      op.text = paragraphText() + "\n\n" + paragraphText() + "\n\n" +
                paragraphText();
      op.threshold = maybeThreshold();
    } else if (roll < 8 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.uniform(0, live.size() - 1)));
      op.kind = StoreOp::kRemove;
      op.name = *it;
      live.erase(it);
      ++removed;
    } else {
      std::string doc = "d";
      doc += std::to_string(rng.uniform(0, 7));
      op.name = doc + "#p" + std::to_string(rng.uniform(0, 9));
      op.document = doc;
      op.text = paragraphText();
      op.threshold = maybeThreshold();
      live.insert(op.name);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Probe texts: mixes of the history's sentences, which claim hashes from
/// many owners at once, and a few fresh sentences.
std::vector<std::string> randomProbes(std::uint64_t seed) {
  const std::vector<std::string> pool = sentencePool(seed);
  util::Rng rng(seed * 7 + 2);
  corpus::TextGenerator gen(&rng);
  std::vector<std::string> probes;
  for (int p = 0; p < 12; ++p) {
    std::string probe;
    for (std::uint64_t n = rng.uniform(1, 8); n > 0; --n) {
      probe += (rng.uniform(0, 4) == 0 ? gen.sentence() : rng.pick(pool)) + " ";
    }
    probes.push_back(std::move(probe));
  }
  return probes;
}

/// Free-text queries run with no document excluded and with one excluded.
constexpr std::string_view kExcludes[] = {"", "d3"};

void apply(FlowTracker& tracker, const StoreOp& op) {
  switch (op.kind) {
    case StoreOp::kObserve:
      tracker.observeSegment(SegmentKind::kParagraph, op.name, op.document,
                             "svc", op.text, op.threshold);
      break;
    case StoreOp::kRemove:
      tracker.removeSegmentByName(op.name);
      break;
    case StoreOp::kObserveDocument:
      tracker.observeDocument(op.document, "svc", op.text, op.threshold,
                              op.threshold);
      break;
  }
}

/// Every query form against the oracle: each live segment's own query
/// (self and same-document excluded), the same fingerprint with only self
/// excluded, and free-text probes with and without a document to exclude.
/// Returns how many of the answers were non-empty.
std::size_t expectTrackerMatchesReference(
    FlowTracker& tracker, const std::vector<std::string>& probes,
    const std::string& where) {
  std::vector<SegmentId> ids;
  tracker.segmentDb().forEach(
      [&](const SegmentRecord& rec) { ids.push_back(rec.id); });
  EXPECT_FALSE(ids.empty()) << where;
  std::size_t disclosing = 0;
  for (SegmentId id : ids) {
    const SegmentRecord rec = *tracker.segment(id);
    const std::string at = where + " segment=" + rec.name;
    const ReferenceAnswer own =
        referenceQuery(tracker, rec.fingerprint, rec.kind, id, rec.document);
    expectSameHits(tracker.sourcesForSegment(id), own.hits, at);
    disclosing += own.hits.empty() ? 0 : 1;

    const ReferenceAnswer selfOnly =
        referenceQuery(tracker, rec.fingerprint, rec.kind, id, {});
    const testutil::CounterDelta delta;
    expectSameHits(tracker.disclosedSources(rec.fingerprint, rec.kind, id),
                   selfOnly.hits, at + " (self only)");
    EXPECT_EQ(delta("bf_tracker_candidates_inspected_total"),
              selfOnly.candidates)
        << at;
  }
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const text::Fingerprint fp = tracker.fingerprintOf(probes[p]);
    for (SegmentKind kind : {SegmentKind::kParagraph, SegmentKind::kDocument}) {
      for (std::string_view exclude : kExcludes) {
        const std::string at =
            where + " probe=" + std::to_string(p) +
            " kind=" + std::to_string(static_cast<int>(kind)) +
            " exclude=" + std::string(exclude);
        const ReferenceAnswer expected =
            referenceQuery(tracker, fp, kind, kInvalidSegment, exclude);
        const testutil::CounterDelta delta;
        expectSameHits(
            tracker.disclosedSources(fp, kind, kInvalidSegment, exclude),
            expected.hits, at);
        EXPECT_EQ(delta("bf_tracker_candidates_inspected_total"),
                  expected.candidates)
            << at;
        disclosing += expected.hits.empty() ? 0 : 1;
      }
    }
  }
  return disclosing;
}

class ScoringMatchesOracle
    : public ::testing::TestWithParam<std::tuple<double, std::size_t, bool>> {
};

TEST_P(ScoringMatchesOracle, EveryQueryMatchesAuthoritativeOverlap) {
  const auto [threshold, removals, authoritative] = GetParam();
  TrackerConfig config;
  config.defaultParagraphThreshold = threshold;
  config.defaultDocumentThreshold = threshold;
  config.useAuthoritative = authoritative;
  // The answer cache keeps a segment's answer while its own fingerprint is
  // unchanged, even after its sources change (S6.2's fast path), so it is
  // off here: every sourcesForSegment call recomputes.
  config.enableCache = false;
  std::size_t disclosing = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::LogicalClock clock;
    FlowTracker tracker(config, &clock);
    const std::vector<StoreOp> history = randomHistory(seed, removals);
    const std::vector<std::string> probes = randomProbes(seed);
    std::string where = "seed=";
    where += std::to_string(seed);
    // Check halfway through as well, before the second half's overwrites
    // and removals.
    for (std::size_t i = 0; i < history.size(); ++i) {
      apply(tracker, history[i]);
      if (i + 1 == history.size() / 2) {
        disclosing +=
            expectTrackerMatchesReference(tracker, probes, where + " (half)");
      }
    }
    disclosing += expectTrackerMatchesReference(tracker, probes, where);
    // The history really left dead segments behind (below the compaction
    // threshold) or really compacted them (above it).
    const std::size_t dead = tracker.hashDb().deadSegmentCount();
    if (removals < HashDb::kDefaultDeadCompactionThreshold) {
      EXPECT_EQ(dead, removals) << where;
    } else {
      EXPECT_LT(dead, removals) << where;
    }
  }
  // A sweep where nothing discloses would prove nothing.
  EXPECT_GT(disclosing, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StoreSweep, ScoringMatchesOracle,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.3, 0.5, 1.0),
                       ::testing::Values(std::size_t{20}, std::size_t{150}),
                       ::testing::Bool()));

}  // namespace
}  // namespace bf::flow
