// Tests for the DecisionEngine: the lookup + enforcement pipeline and
// response-time instrumentation.
#include <gtest/gtest.h>

#include "core/decision_engine.h"
#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace bf::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : rng_(7),
        gen_(&rng_),
        tracker_(flow::TrackerConfig{}, &clock_),
        policy_(&clock_),
        engine_(config_, &tracker_, &policy_) {
    policy_.services().upsert({"itool", "Interview Tool",
                               tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
    policy_.services().upsert(
        {"wiki", "Wiki", tdm::TagSet{"tw"}, tdm::TagSet{"tw"}});
    policy_.services().upsert(
        {"gdocs", "Google Docs", tdm::TagSet{}, tdm::TagSet{}});
  }

  /// Seeds a sensitive paragraph into the Interview Tool.
  std::string seedSensitive() {
    const std::string text = gen_.paragraph(6, 9);
    tracker_.observeSegment(flow::SegmentKind::kParagraph, "itool/eval#p0",
                            "itool/eval", "itool", text);
    policy_.onSegmentObserved("itool/eval#p0", "itool");
    return text;
  }

  DecisionRequest requestFor(const std::string& text,
                             const std::string& service = "gdocs") {
    DecisionRequest req;
    req.segmentName = service + "/target#p0";
    req.documentName = service + "/target";
    req.serviceId = service;
    req.text = text;
    return req;
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  BrowserFlowConfig config_;
  flow::FlowTracker tracker_;
  tdm::TdmPolicy policy_;
  DecisionEngine engine_;
};

TEST_F(EngineTest, CleanTextIsAllowed) {
  seedSensitive();
  const Decision d = engine_.decide(requestFor(gen_.paragraph(6, 9)));
  EXPECT_EQ(d.action, Decision::Action::kAllow);
  EXPECT_FALSE(d.violation());
  EXPECT_TRUE(d.hits.empty());
  EXPECT_TRUE(d.violatingTags.empty());
}

TEST_F(EngineTest, CopiedSensitiveTextWarns) {
  const std::string secret = seedSensitive();
  const Decision d = engine_.decide(requestFor(secret));
  EXPECT_EQ(d.action, Decision::Action::kWarn);  // default advisory mode
  ASSERT_EQ(d.hits.size(), 1u);
  EXPECT_EQ(d.hits[0].sourceName, "itool/eval#p0");
  ASSERT_EQ(d.violatingTags.size(), 1u);
  EXPECT_EQ(d.violatingTags[0], "ti");
}

TEST_F(EngineTest, DisclosurePropagatesImplicitTags) {
  const std::string secret = seedSensitive();
  engine_.decide(requestFor(secret));
  const tdm::Label* label = policy_.labelOf("gdocs/target#p0");
  ASSERT_NE(label, nullptr);
  EXPECT_TRUE(label->implicitTags().contains("ti"));
}

TEST_F(EngineTest, CopyToPrivilegedServiceIsAllowed) {
  // itool -> itool flows are fine: {ti} ⊆ Lp(itool).
  const std::string secret = seedSensitive();
  DecisionRequest req = requestFor(secret, "itool");
  req.documentName = "itool/other";  // different document, same service
  req.segmentName = "itool/other#p0";
  const Decision d = engine_.decide(req);
  EXPECT_EQ(d.action, Decision::Action::kAllow);
  EXPECT_FALSE(d.hits.empty()) << "flow is detected, just permitted";
}

TEST_F(EngineTest, BlockModeBlocks) {
  config_.mode = EnforcementMode::kBlock;
  DecisionEngine engine(config_, &tracker_, &policy_);
  const std::string secret = seedSensitive();
  EXPECT_EQ(engine.decide(requestFor(secret)).action,
            Decision::Action::kBlock);
}

TEST_F(EngineTest, EncryptModeEncrypts) {
  config_.mode = EnforcementMode::kEncrypt;
  DecisionEngine engine(config_, &tracker_, &policy_);
  const std::string secret = seedSensitive();
  EXPECT_EQ(engine.decide(requestFor(secret)).action,
            Decision::Action::kEncrypt);
}

TEST_F(EngineTest, SuppressionLiftsViolationOnReDecision) {
  const std::string secret = seedSensitive();
  ASSERT_TRUE(engine_.decide(requestFor(secret)).violation());
  ASSERT_TRUE(policy_
                  .suppressTag("alice", "gdocs/target#p0", "ti",
                               "approved by legal")
                  .ok());
  EXPECT_FALSE(engine_.decide(requestFor(secret)).violation());
}

TEST_F(EngineTest, ResponseTimesRecorded) {
  seedSensitive();
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  const Decision a = engine_.decide(requestFor(gen_.paragraph(6, 9)));
  const Decision b = engine_.decide(requestFor(gen_.paragraph(6, 9)));
  const obs::MetricsSnapshot delta = obs::registry().snapshot().diff(before);
  const obs::MetricValue* latency = delta.find("bf_decision_latency_ms");
  ASSERT_NE(latency, nullptr);
  ASSERT_EQ(latency->histogram.count, 2u);
  EXPECT_GE(a.responseTimeMs, 0.0);
  EXPECT_GE(b.responseTimeMs, 0.0);
  EXPECT_LT(a.responseTimeMs, 1000.0);
  EXPECT_LT(b.responseTimeMs, 1000.0);
  EXPECT_DOUBLE_EQ(latency->histogram.sum,
                   a.responseTimeMs + b.responseTimeMs);
}

TEST_F(EngineTest, PerKeystrokeDecisionsHitTrackerCache) {
  // The per-keystroke path: same segment, text growing one char at a time.
  seedSensitive();
  const std::string base = gen_.paragraph(8, 8);
  DecisionRequest req = requestFor(base);
  engine_.decide(req);
  const testutil::CounterDelta delta;
  for (char c : std::string(" extra typed text here")) {
    req.text += c;
    engine_.decide(req);
  }
  EXPECT_GT(delta("bf_tracker_cache_hits_total"), 5u);
}

DecisionRequest probeFor(const std::string& text,
                         const std::string& document = "gdocs/target",
                         const std::string& service = "gdocs") {
  DecisionRequest req;
  req.segmentName = document + "/upload";
  req.documentName = document;
  req.serviceId = service;
  req.text = text;
  req.requestKind = RequestKind::kProbe;
  return req;
}

TEST_F(EngineTest, ProbeSynthesisesLabelFromDisclosedSources) {
  const std::string secret = seedSensitive();
  const Decision d = engine_.decideText(probeFor(secret));
  EXPECT_EQ(d.action, Decision::Action::kWarn);
  EXPECT_EQ(d.violatingTags, std::vector<tdm::Tag>{"ti"});
  ASSERT_FALSE(d.hits.empty());
  EXPECT_EQ(d.hits[0].sourceName, "itool/eval#p0");
  // A probe registers nothing: the text stays untracked and unlabelled.
  EXPECT_EQ(tracker_.segmentByName("gdocs/target/upload#p0"), nullptr);
  EXPECT_EQ(policy_.labelOf("gdocs/target/upload#p0"), nullptr);

  const Decision clean = engine_.decideText(probeFor(gen_.paragraph(6, 9)));
  EXPECT_EQ(clean.action, Decision::Action::kAllow);
  EXPECT_TRUE(clean.violatingTags.empty());
}

TEST_F(EngineTest, ProbeExcludesOwnDocument) {
  const std::string secret = seedSensitive();
  const Decision d =
      engine_.decideText(probeFor(secret, "itool/eval", "itool"));
  EXPECT_TRUE(d.hits.empty());
  EXPECT_EQ(d.action, Decision::Action::kAllow);
}

TEST_F(EngineTest, ProbeOfRegisteredSegmentUsesItsLabel) {
  // The outgoing text IS the tracked paragraph of its document: that
  // segment's label decides, user suppressions included.
  const std::string secret = seedSensitive();
  EXPECT_EQ(engine_.decideText(probeFor(secret, "itool/eval")).action,
            Decision::Action::kWarn);
  ASSERT_TRUE(
      policy_.suppressTag("alice", "itool/eval#p0", "ti", "approved").ok());
  EXPECT_EQ(engine_.decideText(probeFor(secret, "itool/eval")).action,
            Decision::Action::kAllow);
}

TEST_F(EngineTest, ProbeAttachesSecretHits) {
  SecretGuard guard;
  guard.addSecret("vpn-password", "correct horse battery", "vpn");
  engine_.setSecretGuard(&guard);
  const Decision d = engine_.decideText(
      probeFor(gen_.paragraph(5, 6) + " the vpn uses CorrectHorseBattery."));
  EXPECT_EQ(d.action, Decision::Action::kWarn);
  EXPECT_EQ(d.secretHits, std::vector<std::string>{"vpn-password"});
  EXPECT_EQ(d.violatingTags, std::vector<tdm::Tag>{"vpn"});
  engine_.setSecretGuard(nullptr);
}

// ---- One fingerprint, one scan, one Algorithm 1 per text ------------------

/// A probe of `text` by document `document` must report exactly the hits a
/// fresh Algorithm 1 query excluding that document gives — source, score,
/// overlap and order — whether it reused the observe's cached answer or not.
void expectProbeMatchesFreshQuery(DecisionEngine& engine,
                                  flow::FlowTracker& tracker,
                                  const std::string& text,
                                  const std::string& document) {
  DecisionRequest probe = probeFor(text, document);
  const Decision d = engine.decide(probe);
  const std::vector<flow::DisclosureHit> fresh = tracker.disclosedSources(
      tracker.fingerprintOf(text), flow::SegmentKind::kParagraph,
      flow::kInvalidSegment, document);
  ASSERT_EQ(d.hits.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(d.hits[i].source, fresh[i].source) << i;
    EXPECT_EQ(d.hits[i].sourceName, fresh[i].sourceName) << i;
    EXPECT_EQ(d.hits[i].score, fresh[i].score) << i;
    EXPECT_EQ(d.hits[i].overlap, fresh[i].overlap) << i;
    EXPECT_EQ(d.hits[i].threshold, fresh[i].threshold) << i;
  }
}

TEST_F(EngineTest, ProbeOfRegisteredSegmentReusesItsExactAnswer) {
  // Two sources in other documents; the target quotes most of the first
  // and half of the second, so both disclose with different scores.
  const std::string a = gen_.paragraph(8, 10);
  const std::string b = gen_.paragraph(8, 10);
  tracker_.observeSegment(flow::SegmentKind::kParagraph, "itool/a#p0",
                          "itool/a", "itool", a);
  tracker_.observeSegment(flow::SegmentKind::kParagraph, "wiki/b#p0", "wiki/b",
                          "wiki", b);
  const std::string target = a + " " + b.substr(0, b.size() / 2);
  const std::string doc = "gdocs/target";
  auto observeTarget = [&] { (void)engine_.decide(requestFor(target)); };
  auto probeIsServedFromCache = [&] {
    const testutil::CounterDelta delta;
    expectProbeMatchesFreshQuery(engine_, tracker_, target, doc);
    return delta("bf_tracker_cache_hits_total") == 1;
  };

  observeTarget();
  ASSERT_FALSE(engine_.decide(probeFor(target, doc)).hits.empty());
  EXPECT_TRUE(probeIsServedFromCache());

  // Another segment of the target's own document changing cannot move
  // the answer (the query excludes that document): still reused.
  DecisionRequest sibling = requestFor(gen_.paragraph(6, 8));
  sibling.segmentName = doc + "#p1";
  (void)engine_.decide(sibling);
  EXPECT_TRUE(probeIsServedFromCache());

  // A threshold change drops the cache: recomputed, still exact.
  ASSERT_TRUE(tracker_.setSegmentThreshold("itool/a#p0", 0.95));
  EXPECT_FALSE(probeIsServedFromCache());
  observeTarget();
  EXPECT_TRUE(probeIsServedFromCache());

  // Another segment's observe that changes its threshold drops the
  // target's cache entry too.
  tracker_.observeSegment(flow::SegmentKind::kParagraph, "itool/a#p0",
                          "itool/a", "itool", a, 0.2);
  EXPECT_FALSE(probeIsServedFromCache());
  observeTarget();

  // A source rewritten in another document: the observe's cache keeps its
  // old answer (paper S6.2 serves an unchanged fingerprint's answer), but
  // the probe must not — it recomputes.
  const std::vector<flow::DisclosureHit> cachedBefore =
      tracker_.sourcesForSegment(tracker_.segmentByName("gdocs/target#p0")->id);
  tracker_.observeSegment(flow::SegmentKind::kParagraph, "itool/a#p0",
                          "itool/a", "itool", gen_.paragraph(8, 10));
  ASSERT_NE(tracker_
                .disclosedSources(tracker_.fingerprintOf(target),
                                  flow::SegmentKind::kParagraph,
                                  flow::kInvalidSegment, doc)
                .size(),
            cachedBefore.size())
      << "the rewrite must move the answer for this check to mean anything";
  EXPECT_EQ(
      tracker_.sourcesForSegment(tracker_.segmentByName("gdocs/target#p0")->id)
          .size(),
      cachedBefore.size());
  EXPECT_FALSE(probeIsServedFromCache());
  // A later change inside the target's own document does not hide the
  // earlier change elsewhere.
  sibling.text = gen_.paragraph(6, 8);
  (void)engine_.decide(sibling);
  EXPECT_FALSE(probeIsServedFromCache());
  EXPECT_FALSE(probeIsServedFromCache())
      << "a probe leaves the cache as it was";

  // A removal: recomputed, still exact.
  observeTarget();
  tracker_.removeSegmentByName("wiki/b#p0");
  EXPECT_FALSE(probeIsServedFromCache());
}

TEST_F(EngineTest, MemoizedSecretHitsFollowTheGuard) {
  // Deciding T, registering a secret T contains, then deciding T again
  // must report the new secret: the memo is keyed on the guard's
  // generation, not on the text alone.
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("unrelated", "nothing-like-this-99", "t0"));
  engine_.setSecretGuard(&guard);
  const std::string text =
      gen_.paragraph(4, 5) + " the vpn uses CorrectHorseBattery.";
  EXPECT_TRUE(engine_.decide(requestFor(text)).secretHits.empty());
  EXPECT_TRUE(engine_.decide(probeFor(text, "gdocs/other")).secretHits.empty());
  ASSERT_TRUE(guard.addSecret("vpn-password", "correct horse battery", "vpn"));
  EXPECT_EQ(engine_.decide(requestFor(text)).secretHits,
            std::vector<std::string>{"vpn-password"});
  EXPECT_EQ(engine_.decide(probeFor(text, "gdocs/other")).secretHits,
            std::vector<std::string>{"vpn-password"});

  // Swapping in another guard is a different secret set too.
  SecretGuard other;
  ASSERT_TRUE(other.addSecret("unrelated", "nothing-like-this-99", "t0"));
  engine_.setSecretGuard(&other);
  EXPECT_TRUE(engine_.decide(probeFor(text, "gdocs/other")).secretHits.empty());
  engine_.setSecretGuard(nullptr);
}

TEST_F(EngineTest, MemoRecomputesAOneByteDifferentText) {
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("vpn-password", "correct horse battery", "vpn"));
  engine_.setSecretGuard(&guard);
  const std::string text =
      gen_.paragraph(4, 5) + " the vpn uses CorrectHorseBattery.";
  std::string changed = text;
  changed[changed.find("Battery")] = 'X';  // same length, secret broken
  const std::string longer = text + "!";   // one extra byte, secret kept

  const testutil::CounterDelta delta;
  EXPECT_EQ(engine_.decide(requestFor(text)).secretHits,
            std::vector<std::string>{"vpn-password"});
  EXPECT_EQ(delta("bf_tracker_fingerprints_computed_total"), 1u);
  // The same text again (e.g. the document unit of a one-paragraph page):
  // nothing recomputed.
  EXPECT_EQ(engine_.decide(probeFor(text, "gdocs/other")).secretHits,
            std::vector<std::string>{"vpn-password"});
  EXPECT_EQ(delta("bf_tracker_fingerprints_computed_total"), 1u);

  EXPECT_TRUE(engine_.decide(requestFor(changed)).secretHits.empty());
  EXPECT_EQ(delta("bf_tracker_fingerprints_computed_total"), 2u);
  EXPECT_TRUE(tracker_.segmentByName("gdocs/target#p0")
                  ->fingerprint.sameHashes(tracker_.fingerprintOf(changed)));

  EXPECT_EQ(engine_.decide(probeFor(longer, "gdocs/other")).secretHits,
            std::vector<std::string>{"vpn-password"});
  engine_.setSecretGuard(nullptr);
}

/// Same hash set, and the same grams at the same positions.
void expectSameFingerprint(const text::Fingerprint& got,
                           const text::Fingerprint& want,
                           const std::string& label) {
  EXPECT_TRUE(got.sameHashes(want)) << label;
  ASSERT_EQ(got.grams().size(), want.grams().size()) << label;
  for (std::size_t i = 0; i < want.grams().size(); ++i) {
    EXPECT_EQ(got.grams()[i].hash, want.grams()[i].hash) << label;
    EXPECT_EQ(got.grams()[i].pos, want.grams()[i].pos) << label;
  }
}

TEST_F(EngineTest, KeystrokeFingerprintsEachChangedTextOnce) {
  // The plug-in's per-keystroke sequence on a three-paragraph page: the
  // edited paragraph's observe, the document's observe, then the upload
  // probe of the paragraph. The memo holds all three texts, so the probe
  // recomputes nothing, and the two observes splice from the previous
  // keystroke's paragraph and document.
  std::vector<std::string> paras = {gen_.paragraph(3, 4), gen_.paragraph(3, 4),
                                    gen_.paragraph(3, 4)};
  const auto documentText = [&] {
    return paras[0] + "\n\n" + paras[1] + "\n\n" + paras[2];
  };
  DecisionRequest doc = requestFor(documentText());
  doc.segmentName = "gdocs/target";
  doc.kind = flow::SegmentKind::kDocument;
  for (std::size_t i = 0; i < paras.size(); ++i) {
    DecisionRequest para = requestFor(paras[i]);
    const std::string index = std::to_string(i);
    para.segmentName = "gdocs/target#p" + index;
    (void)engine_.decide(para);
  }
  (void)engine_.decide(doc);

  // Letters only: each keystroke changes the hash set, so the tracker
  // stores the new fingerprint whole (an unchanged hash set keeps the
  // stored grams, positions included).
  const std::string typed = "thequickbrownfox";
  for (std::size_t k = 0; k < typed.size(); ++k) {
    paras[1].insert(paras[1].size() / 2 + k, 1, typed[k]);
    DecisionRequest para = requestFor(paras[1]);
    para.segmentName = "gdocs/target#p1";
    doc.text = documentText();
    const testutil::CounterDelta delta;
    (void)engine_.decide(para);
    (void)engine_.decide(doc);
    (void)engine_.decide(probeFor(paras[1]));
    EXPECT_EQ(delta("bf_tracker_fingerprints_computed_total"), 2u)
        << "keystroke " << k;
    const std::string step = std::to_string(k);
    expectSameFingerprint(
        tracker_.segmentByName("gdocs/target#p1")->fingerprint,
        tracker_.fingerprintOf(paras[1]), "paragraph, keystroke " + step);
    expectSameFingerprint(tracker_.segmentByName("gdocs/target")->fingerprint,
                          tracker_.fingerprintOf(doc.text),
                          "document, keystroke " + step);
  }
}

// ---- Spliced secret scans ---------------------------------------------------

TEST_F(EngineTest, SecretRegisteredBetweenKeystrokesIsFoundInTheUnchangedPart) {
  // The second keystroke's text splices from the first's, but the first
  // was scanned before the secret existed: its matches must not be reused
  // for the bytes the keystroke left alone.
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("unrelated", "nothing-like-this-99", "t0"));
  engine_.setSecretGuard(&guard);
  std::string text = "the vpn uses CorrectHorseBattery. " + gen_.paragraph(4, 5);
  DecisionRequest req = requestFor(text);
  EXPECT_TRUE(engine_.decide(req).secretHits.empty());
  ASSERT_TRUE(guard.addSecret("vpn-password", "correct horse battery", "vpn"));
  req.text = text + "s";
  EXPECT_EQ(engine_.decide(req).secretHits,
            std::vector<std::string>{"vpn-password"});
  // The next keystroke splices from a scan under the current generation.
  req.text = text + "st";
  EXPECT_EQ(engine_.decide(req).secretHits,
            std::vector<std::string>{"vpn-password"});
  engine_.setSecretGuard(nullptr);
}

TEST_F(EngineTest, DeletingOneCharacterOfASecretClearsItsHitOnTheNextKeystroke) {
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("vpn-password", "correct horse battery", "vpn"));
  engine_.setSecretGuard(&guard);
  const std::string text =
      gen_.paragraph(3, 4) + " the vpn uses CorrectHorseBattery. " +
      gen_.paragraph(3, 4);
  DecisionRequest req = requestFor(text);
  Decision d = engine_.decide(req);
  EXPECT_EQ(d.secretHits, std::vector<std::string>{"vpn-password"});
  EXPECT_EQ(d.violatingTags, std::vector<tdm::Tag>{"vpn"});

  std::string broken = text;
  broken.erase(broken.find("Horse") + 2, 1);
  req.text = broken;
  d = engine_.decide(req);
  EXPECT_TRUE(d.secretHits.empty());
  EXPECT_EQ(d.action, Decision::Action::kAllow) << "the tag is shed";

  req.text = text;  // typed back
  EXPECT_EQ(engine_.decide(req).secretHits,
            std::vector<std::string>{"vpn-password"});
  engine_.setSecretGuard(nullptr);
}

TEST_F(EngineTest, KeystrokeIntoALongParagraphScansTheEditOnly) {
  // Each keystroke walks the edit and one window of the longest secret on
  // each side, not the paragraph; its hits are still the full scan's.
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("vpn-password", "correct horse battery", "vpn"));
  engine_.setSecretGuard(&guard);
  std::string text;
  while (text.size() < 16000) text += gen_.paragraph(1, 1) + " ";
  text.insert(text.size() / 4, " CorrectHorseBattery ");
  DecisionRequest req = requestFor(text);
  (void)engine_.decide(req);
  obs::Counter& walked = obs::registry().counter("bf_secret_scanned_bytes_total");
  const std::string typed = "the quick brown fox";
  for (std::size_t k = 0; k < typed.size(); ++k) {
    text.insert(text.size() / 2 + k, 1, typed[k]);
    req.text = text;
    const std::uint64_t before = walked.value();
    const Decision d = engine_.decide(req);
    const std::uint64_t bytes = walked.value() - before;
    EXPECT_LE(bytes, 200u) << "keystroke " << k;
    EXPECT_GT(bytes, 0u) << "keystroke " << k;
    std::vector<std::string> names;
    for (const auto& hit : guard.scan(text)) names.push_back(hit.name);
    EXPECT_EQ(d.secretHits, names) << "keystroke " << k;
    EXPECT_EQ(d.secretHits, std::vector<std::string>{"vpn-password"});
  }
  engine_.setSecretGuard(nullptr);
}

}  // namespace
}  // namespace bf::core
