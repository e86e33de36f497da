// Concurrency regression tests for the DecisionEngine.
//
// UploadConcurrencyTest drives the plug-in's XHR probes and form re-submits
// on the caller thread while the engine's worker decides async paragraphs:
// every tracker/policy access on either side must be serialised by the
// engine (the tsan preset runs it).
//
// EnforcementModeFlips... is the regression test for a real data race the
// thread-safety migration surfaced: setMode() used to write config_.mode
// unlocked while the worker thread read it inside decideLocked(), a torn
// read under TSan. The mode now lives in a std::atomic mirror; this test
// fails under the tsan preset against the old code.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/wiki_client.h"
#include "core/decision_engine.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "util/clock.h"

namespace bf::core {
namespace {

class EngineConcurrencyTest : public ::testing::Test {
 protected:
  EngineConcurrencyTest()
      : rng_(21),
        gen_(&rng_),
        tracker_(flow::TrackerConfig{}, &clock_),
        policy_(&clock_),
        engine_(config_, &tracker_, &policy_) {
    policy_.services().upsert({"internal", "Internal", tdm::TagSet{"in"},
                               tdm::TagSet{"in"}});
    policy_.services().upsert(
        {"external", "External", tdm::TagSet{}, tdm::TagSet{}});
    // A sensitive paragraph whose re-upload to "external" violates policy,
    // so the enforcement mode actually matters for every decision below.
    sensitive_ = gen_.paragraph(6, 9);
    tracker_.observeSegment(flow::SegmentKind::kParagraph, "internal/doc#p0",
                            "internal/doc", "internal", sensitive_);
    policy_.onSegmentObserved("internal/doc#p0", "internal");
  }

  DecisionRequest leakRequest(int i) const {
    DecisionRequest req;
    req.segmentName = "external/d" + std::to_string(i) + "#p0";
    req.documentName = "external/d" + std::to_string(i);
    req.serviceId = "external";
    req.text = sensitive_;
    return req;
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  BrowserFlowConfig config_;
  flow::FlowTracker tracker_;
  tdm::TdmPolicy policy_;
  DecisionEngine engine_;
  std::string sensitive_;
};

TEST_F(EngineConcurrencyTest, EnforcementModeFlipsDuringAsyncLoadStayAtomic) {
  constexpr int kDecisions = 300;
  std::vector<std::future<Decision>> futures;
  futures.reserve(kDecisions);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    // Hammer the mode while the worker decides; each decision must see
    // exactly warn or block, never a torn in-between value.
    bool warn = false;
    while (!stop.load(std::memory_order_relaxed)) {
      engine_.setMode(warn ? EnforcementMode::kWarn : EnforcementMode::kBlock);
      warn = !warn;
    }
  });

  for (int i = 0; i < kDecisions; ++i) {
    futures.push_back(engine_.decideAsync(leakRequest(i)));
  }
  engine_.drain();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();

  int violations = 0;
  for (auto& f : futures) {
    const Decision d = f.get();
    if (d.degraded) continue;  // shed under load: action follows degradedMode
    ASSERT_TRUE(d.action == Decision::Action::kWarn ||
                d.action == Decision::Action::kBlock)
        << "decision saw a torn enforcement mode";
    ++violations;
  }
  EXPECT_GT(violations, 0);
  const EnforcementMode final = engine_.mode();
  EXPECT_TRUE(final == EnforcementMode::kWarn ||
              final == EnforcementMode::kBlock);
}

TEST_F(EngineConcurrencyTest, ResilienceRetuneAndBreakerPollDuringLoad) {
  constexpr int kDecisions = 200;
  std::atomic<bool> stop{false};

  std::thread tuner([&] {
    ResilienceConfig tight = config_.resilience;
    ResilienceConfig loose = config_.resilience;
    tight.maxQueueDepth = 4;
    tight.decisionDeadlineMs = 1.0;
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      engine_.setResilience(flip ? tight : loose);
      flip = !flip;
    }
  });
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)engine_.breakerOpen();
      (void)engine_.latencySummary();
    }
  });

  std::vector<std::future<Decision>> futures;
  futures.reserve(kDecisions);
  for (int i = 0; i < kDecisions; ++i) {
    futures.push_back(engine_.decideAsync(leakRequest(i)));
  }
  engine_.drain();
  stop.store(true, std::memory_order_relaxed);
  tuner.join();
  poller.join();

  // Every future resolves: shed / deadline-expired decisions come back
  // degraded (and audited), the rest ran the full pipeline.
  std::size_t resolved = 0;
  for (auto& f : futures) {
    const Decision d = f.get();
    if (d.degraded) {
      EXPECT_FALSE(d.degradedReason.empty());
    }
    ++resolved;
  }
  EXPECT_EQ(resolved, futures.size());
}

TEST_F(EngineConcurrencyTest, SyncAndAsyncDecisionsInterleaveSafely) {
  constexpr int kPerSide = 100;
  std::vector<std::future<Decision>> futures;
  futures.reserve(kPerSide);
  std::thread asyncSide([&] {
    for (int i = 0; i < kPerSide; ++i) {
      futures.push_back(engine_.decideAsync(leakRequest(i)));
    }
  });
  for (int i = 0; i < kPerSide; ++i) {
    const Decision d = engine_.decide(leakRequest(kPerSide + i));
    if (!d.degraded) {
      EXPECT_TRUE(d.violation());
    }
  }
  asyncSide.join();
  engine_.drain();
  for (auto& f : futures) (void)f.get();
}

TEST(UploadConcurrencyTest, UploadsAndDraftPruningRaceAsyncParagraphs) {
  util::LogicalClock clock;
  util::Rng rng(33);
  corpus::TextGenerator gen(&rng);
  cloud::SimNetwork network(&rng);
  cloud::DocsBackend docsBackend;
  cloud::FormBackend wikiBackend;
  network.registerService("https://docs.google.com", &docsBackend);
  network.registerService("https://wiki.corp", &wikiBackend);
  BrowserFlowConfig config;
  config.asyncParagraphChecks = true;
  BrowserFlowPlugin plugin(config, &clock);
  plugin.policy().services().upsert({"https://itool.corp", "Interview Tool",
                                     tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
  const std::string secret = gen.paragraph(6, 9);
  plugin.observeServiceDocument("https://itool.corp",
                                "https://itool.corp/eval", secret);
  browser::Browser browser(&network);
  browser.addExtension(&plugin);

  browser::Page& docsTab = browser.openTab("https://docs.google.com/d/race");
  cloud::DocsClient docs(docsTab, "race");
  docs.openDocument();
  browser::Page& wikiTab = browser.openTab("https://wiki.corp/edit/race");
  cloud::WikiClient wiki(wikiTab, "race");
  wiki.openEditor();

  constexpr int kRounds = 40;
  for (int i = 0; i < kRounds; ++i) {
    // Each Docs edit queues paragraph and document decisions for the
    // worker, then sends an XHR the caller thread probes at once.
    EXPECT_EQ(docs.insertParagraph(docs.paragraphCount(),
                                   i % 3 == 0 ? secret : gen.paragraph(4, 6)),
              200);
    // Drafts alternate between three paragraphs and one: every short
    // re-submit prunes the two stale draft paragraphs.
    std::string draft = gen.paragraph(3, 4);
    if (i % 2 == 0) {
      draft += "\n\n" + gen.paragraph(3, 4) + "\n\n" + gen.paragraph(3, 4);
    }
    wiki.setContent(draft);
    EXPECT_EQ(wiki.save(), 200);  // warn mode: the submit proceeds
  }
  plugin.drainPendingDecisions();

  // The last draft was short: its stale paragraphs are gone.
  EXPECT_NE(plugin.tracker().segmentByName(
                "https://wiki.corp/edit/race/draft#p0"),
            nullptr);
  EXPECT_EQ(plugin.tracker().segmentByName(
                "https://wiki.corp/edit/race/draft#p2"),
            nullptr);
  EXPECT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kViolation);
}

}  // namespace
}  // namespace bf::core
