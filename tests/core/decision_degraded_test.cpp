// Tests for the DecisionEngine's graceful degradation: the circuit breaker
// around the disclosure lookup, and the audit trail every degraded decision
// leaves behind.
#include <gtest/gtest.h>

#include <memory>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/wiki_client.h"
#include "core/decision_engine.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "tdm/audit.h"
#include "util/clock.h"

namespace bf::core {
namespace {

class DegradedTest : public ::testing::Test {
 protected:
  DegradedTest()
      : rng_(7),
        gen_(&rng_),
        tracker_(flow::TrackerConfig{}, &clock_),
        policy_(&clock_) {
    policy_.services().upsert(
        {"gdocs", "Google Docs", tdm::TagSet{}, tdm::TagSet{}});
    // Sample every trace so the degraded-path assertions below can demand
    // full stage breakdowns, not just the always-keep skeleton.
    savedSampleEvery_ = obs::traceSampleEvery();
    obs::setTraceSampleEvery(1);
  }

  ~DegradedTest() override { obs::setTraceSampleEvery(savedSampleEvery_); }

  DecisionRequest requestFor(const std::string& text, int index = 0) {
    DecisionRequest req;
    req.segmentName = "gdocs/target#p" + std::to_string(index);
    req.documentName = "gdocs/target";
    req.serviceId = "gdocs";
    req.text = text;
    return req;
  }

  std::size_t degradedAuditCount() const {
    return policy_.audit()
        .byKind(tdm::AuditRecord::Kind::kDecisionDegraded)
        .size();
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  BrowserFlowConfig config_;
  flow::FlowTracker tracker_;
  tdm::TdmPolicy policy_;
  std::uint32_t savedSampleEvery_ = 16;
};

TEST_F(DegradedTest, BreakerTripsSkipsAndProbes) {
  // A budget of ~0 makes every disclosure lookup count as slow.
  config_.resilience.breakerLatencyBudgetMs = 1e-12;
  config_.resilience.breakerTripThreshold = 3;
  config_.resilience.breakerOpenDecisions = 2;
  DecisionEngine engine(config_, &tracker_, &policy_);

  // Three slow lookups trip the breaker.
  for (int i = 0; i < 3; ++i) {
    const Decision d = engine.decide(requestFor(gen_.paragraph(3, 5), i));
    EXPECT_FALSE(d.degraded) << "pipeline still runs while counting";
  }
  EXPECT_TRUE(engine.breakerOpen());

  // While open, decisions skip the lookup and answer degraded.
  for (int i = 3; i < 5; ++i) {
    const Decision d = engine.decide(requestFor(gen_.paragraph(3, 5), i));
    EXPECT_TRUE(d.degraded);
    EXPECT_NE(d.degradedReason.find("breaker"), std::string::npos);
  }

  // Skip allowance spent: the next decision is a half-open probe that runs
  // the real pipeline; the lookup is still "slow", so the breaker re-arms.
  const Decision probe = engine.decide(requestFor(gen_.paragraph(3, 5), 5));
  EXPECT_FALSE(probe.degraded);
  EXPECT_TRUE(engine.breakerOpen());
  EXPECT_TRUE(engine.decide(requestFor(gen_.paragraph(3, 5), 6)).degraded);

  EXPECT_EQ(degradedAuditCount(), 3u);
}

TEST_F(DegradedTest, HealthyProbeClosesBreaker) {
  config_.resilience.breakerLatencyBudgetMs = 1e-12;
  config_.resilience.breakerTripThreshold = 1;
  config_.resilience.breakerOpenDecisions = 1;
  DecisionEngine engine(config_, &tracker_, &policy_);

  engine.decide(requestFor(gen_.paragraph(3, 5), 0));  // trips
  ASSERT_TRUE(engine.breakerOpen());
  EXPECT_TRUE(engine.decide(requestFor(gen_.paragraph(3, 5), 1)).degraded);

  // Raise the latency budget so the half-open probe finds a healthy lookup.
  ResilienceConfig relaxed = config_.resilience;
  relaxed.breakerLatencyBudgetMs = 1e9;
  engine.setResilience(relaxed);
  const Decision probe = engine.decide(requestFor(gen_.paragraph(3, 5), 2));
  EXPECT_FALSE(probe.degraded);
  EXPECT_FALSE(engine.breakerOpen());
  EXPECT_FALSE(engine.decide(requestFor(gen_.paragraph(3, 5), 3)).degraded);
}

TEST_F(DegradedTest, BreakerFailClosedBlocksWhileOpen) {
  config_.resilience.breakerLatencyBudgetMs = 1e-12;
  config_.resilience.breakerTripThreshold = 1;
  config_.resilience.breakerOpenDecisions = 5;
  config_.resilience.degradedMode = DegradedMode::kFailClosed;
  DecisionEngine engine(config_, &tracker_, &policy_);

  engine.decide(requestFor(gen_.paragraph(3, 5), 0));
  ASSERT_TRUE(engine.breakerOpen());
  const Decision d = engine.decide(requestFor(gen_.paragraph(3, 5), 1));
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.action, Decision::Action::kBlock);
  EXPECT_TRUE(d.violation());
}

TEST_F(DegradedTest, DegradedMetricTracksAuditLog) {
  config_.resilience.breakerLatencyBudgetMs = 1e-12;
  config_.resilience.breakerTripThreshold = 1;
  config_.resilience.breakerOpenDecisions = 3;
  DecisionEngine engine(config_, &tracker_, &policy_);
  const std::uint64_t before =
      obs::registry().counter("bf_decision_degraded_total").value();

  engine.decide(requestFor(gen_.paragraph(3, 5), 0));  // trips
  for (int i = 1; i <= 3; ++i) {
    engine.decide(requestFor(gen_.paragraph(3, 5), i));  // degraded x3
  }
  const std::uint64_t after =
      obs::registry().counter("bf_decision_degraded_total").value();
  EXPECT_EQ(after - before, 3u);
  EXPECT_EQ(degradedAuditCount(), 3u);
}

TEST_F(DegradedTest, BreakerDecisionsResolveInFlightRecorder) {
  config_.resilience.breakerLatencyBudgetMs = 1e-12;
  config_.resilience.breakerTripThreshold = 1;
  config_.resilience.breakerOpenDecisions = 2;
  DecisionEngine engine(config_, &tracker_, &policy_);

  engine.decide(requestFor(gen_.paragraph(3, 5), 0));  // trips
  ASSERT_TRUE(engine.breakerOpen());
  for (int i = 1; i <= 2; ++i) {
    const Decision d = engine.decide(requestFor(gen_.paragraph(3, 5), i));
    ASSERT_TRUE(d.degraded);
    const auto record = obs::FlightRecorder::instance().explain(d.decisionId);
    ASSERT_TRUE(record.has_value());
    EXPECT_TRUE(record->degraded);
    EXPECT_NE(record->degradedReason.find("breaker"), std::string::npos);
    EXPECT_EQ(record->traceId, d.traceId);
    EXPECT_EQ(record->serviceId, "gdocs");
  }
}

// ---- Uploads and forms through the plug-in ------------------------------------
//
// Every ingress path gets the same degraded behaviour: with the breaker
// open, XHR probes and form drafts are answered degraded and audited, and
// the plug-in enforces the decision's action rather than its configured
// (warn) mode.

class PluginDegradedTest : public ::testing::Test {
 protected:
  PluginDegradedTest() : rng_(9), gen_(&rng_), network_(&rng_) {
    network_.registerService("https://docs.google.com", &docsBackend_);
    network_.registerService("https://wiki.corp", &wikiBackend_);
  }

  /// A warn-mode plug-in whose circuit breaker is open for the whole test.
  void startWithOpenBreaker(DegradedMode degradedMode) {
    BrowserFlowConfig config;
    config.resilience.breakerLatencyBudgetMs = 1e-12;
    config.resilience.breakerTripThreshold = 1;
    config.resilience.breakerOpenDecisions = 1000;
    config.resilience.degradedMode = degradedMode;
    plugin_ = std::make_unique<BrowserFlowPlugin>(config, &clock_);
    browser_ = std::make_unique<browser::Browser>(&network_);
    browser_->addExtension(plugin_.get());
    DecisionRequest trip;
    trip.segmentName = "setup#p0";
    trip.documentName = "setup";
    trip.serviceId = "https://docs.google.com";
    trip.text = gen_.paragraph(3, 5);
    (void)plugin_->engine().decide(trip);  // one slow lookup trips it
    ASSERT_TRUE(plugin_->engine().breakerOpen());
  }

  /// kDecisionDegraded audit records for segments under `prefix`.
  std::size_t degradedAuditsUnder(const std::string& prefix) const {
    std::size_t n = 0;
    for (const auto& r : plugin_->policy().audit().byKind(
             tdm::AuditRecord::Kind::kDecisionDegraded)) {
      if (r.segment.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  cloud::SimNetwork network_;
  cloud::DocsBackend docsBackend_;
  cloud::FormBackend wikiBackend_;
  std::unique_ptr<BrowserFlowPlugin> plugin_;
  // Declared last: its tabs hold plug-in hooks, so it goes first.
  std::unique_ptr<browser::Browser> browser_;
};

TEST_F(PluginDegradedTest, FailClosedBlocksXhrUploadInWarnMode) {
  startWithOpenBreaker(DegradedMode::kFailClosed);
  browser::Page& page = browser_->openTab("https://docs.google.com/d/deg1");
  cloud::DocsClient docs(page, "deg1");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(6, 9)), 403);
  EXPECT_TRUE(docsBackend_.paragraphsOf("deg1").empty());
  EXPECT_GE(degradedAuditsUnder("https://docs.google.com/d/deg1/xhr"), 1u);
  EXPECT_EQ(plugin_->policy()
                .audit()
                .byKind(tdm::AuditRecord::Kind::kUploadBlocked)
                .size(),
            1u);
}

TEST_F(PluginDegradedTest, FailOpenLetsXhrUploadThroughAndAudits) {
  startWithOpenBreaker(DegradedMode::kFailOpen);
  browser::Page& page = browser_->openTab("https://docs.google.com/d/deg2");
  cloud::DocsClient docs(page, "deg2");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(6, 9)), 200);
  EXPECT_EQ(docsBackend_.paragraphsOf("deg2").size(), 1u);
  EXPECT_GE(degradedAuditsUnder("https://docs.google.com/d/deg2/xhr"), 1u)
      << "a fail-open upload is still audited";
  EXPECT_TRUE(plugin_->warnings().empty());
}

TEST_F(PluginDegradedTest, FailClosedSuppressesFormSubmitInWarnMode) {
  startWithOpenBreaker(DegradedMode::kFailClosed);
  browser::Page& page = browser_->openTab("https://wiki.corp/edit/deg3");
  cloud::WikiClient wiki(page, "deg3");
  wiki.openEditor();
  wiki.setContent(gen_.paragraph(6, 9));
  EXPECT_EQ(wiki.save(), 0) << "fail-closed degraded draft must not submit";
  EXPECT_EQ(wikiBackend_.postCount(), 0u);
  EXPECT_GE(degradedAuditsUnder("https://wiki.corp/edit/deg3/draft"), 1u);
}

}  // namespace
}  // namespace bf::core
