// Tests for the DecisionEngine: the lookup + enforcement pipeline, the
// async worker, and response-time instrumentation.
#include <gtest/gtest.h>

#include "core/decision_engine.h"
#include "corpus/text_generator.h"
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
  engine_.resetLatencyStats();
  engine_.decide(requestFor(gen_.paragraph(6, 9)));
  engine_.decide(requestFor(gen_.paragraph(6, 9)));
  const auto latency = engine_.latencySummary();
  ASSERT_EQ(latency.count, 2u);
  EXPECT_GE(latency.minMs, 0.0);
  EXPECT_LT(latency.maxMs, 1000.0);
  EXPECT_LE(latency.minMs, latency.maxMs);
  EXPECT_GE(latency.meanMs, latency.minMs);
  EXPECT_LE(latency.meanMs, latency.maxMs);
}

TEST_F(EngineTest, AsyncDecisionMatchesSync) {
  const std::string secret = seedSensitive();
  auto future = engine_.decideAsync(requestFor(secret));
  const Decision d = future.get();
  EXPECT_TRUE(d.violation());
  ASSERT_EQ(d.hits.size(), 1u);
  EXPECT_EQ(d.hits[0].sourceName, "itool/eval#p0");
}

TEST_F(EngineTest, AsyncQueueProcessesInOrderAndDrains) {
  seedSensitive();
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine_.decideAsync(requestFor(gen_.paragraph(4, 6))));
  }
  engine_.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().action, Decision::Action::kAllow);
  }
}

TEST_F(EngineTest, PerKeystrokeDecisionsHitTrackerCache) {
  // The per-keystroke path: same segment, text growing one char at a time.
  seedSensitive();
  const std::string base = gen_.paragraph(8, 8);
  DecisionRequest req = requestFor(base);
  engine_.decide(req);
  tracker_.resetStats();
  for (char c : std::string(" extra typed text here")) {
    req.text += c;
    engine_.decide(req);
  }
  EXPECT_GT(tracker_.stats().cacheHits, 5u);
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

}  // namespace
}  // namespace bf::core
