// Concurrency regression tests for the DecisionEngine: every decision runs
// on its caller's thread, and several threads may decide at once (the tsan
// preset runs these).
//
// UploadConcurrencyTest drives the plug-in's XHR probes and form re-submits
// on the browser thread while a second thread decides paragraphs and
// drafts through the same engine: every tracker/policy access on either
// side must be serialised by the engine.
#include <gtest/gtest.h>

#include <atomic>
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
#include "obs/metrics.h"
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

  /// Runs `perThread` decisions on each of `threads` threads at once and
  /// returns them all.
  std::vector<Decision> decideOnThreads(int threads, int perThread) {
    std::vector<Decision> out(static_cast<std::size_t>(threads * perThread));
    std::vector<std::thread> deciders;
    for (int t = 0; t < threads; ++t) {
      deciders.emplace_back([&, t] {
        for (int i = 0; i < perThread; ++i) {
          const int n = t * perThread + i;
          out[static_cast<std::size_t>(n)] = engine_.decide(leakRequest(n));
        }
      });
    }
    for (auto& d : deciders) d.join();
    return out;
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

TEST_F(EngineConcurrencyTest, ResilienceRetuneAndBreakerPollDuringLoad) {
  // A monitoring thread reads the latency histogram while two threads
  // decide: the histogram is read concurrently with its writers.
  const obs::Histogram& latency =
      obs::registry().histogram("bf_decision_latency_ms");
  const std::uint64_t countBefore = latency.count();
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)latency.data();
    }
  });
  const std::vector<Decision> decisions = decideOnThreads(2, 100);
  stop.store(true, std::memory_order_relaxed);
  poller.join();

  // Every decision ran the full pipeline: each re-upload of the sensitive
  // paragraph is found and warned about, whatever the load.
  for (const Decision& d : decisions) {
    EXPECT_EQ(d.action, Decision::Action::kWarn);
    EXPECT_FALSE(d.hits.empty());
  }
  EXPECT_GE(latency.count() - countBefore, decisions.size());
}

TEST_F(EngineConcurrencyTest, SyncAndAsyncDecisionsInterleaveSafely) {
  // One thread decides single units while this one decides whole texts,
  // whose paragraph and document units share one lock hold.
  constexpr int kPerSide = 100;
  std::vector<Decision> units(kPerSide);
  std::thread other([&] {
    for (int i = 0; i < kPerSide; ++i) units[i] = engine_.decide(leakRequest(i));
  });
  for (int i = 0; i < kPerSide; ++i) {
    DecisionRequest req = leakRequest(kPerSide + i);
    req.segmentName = req.documentName;
    req.text = sensitive_ + "\n\n" + sensitive_;
    const Decision d = engine_.decideText(req);
    EXPECT_TRUE(d.violation());
    EXPECT_FALSE(d.hits.empty());
  }
  other.join();
  for (const Decision& d : units) EXPECT_TRUE(d.violation());
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
  BrowserFlowPlugin plugin(BrowserFlowConfig{}, &clock);
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
  // A second user of the same engine: it observes paragraphs of its own
  // document and re-submits its own draft, alternating three paragraphs
  // and one, while the browser thread below uploads and prunes.
  const std::string otherDraft = "https://wiki.corp/edit/other/draft";
  std::thread other([&] {
    util::Rng otherRng(34);
    corpus::TextGenerator otherGen(&otherRng);
    for (int i = 0; i < kRounds; ++i) {
      DecisionRequest para;
      para.segmentName = "https://docs.google.com/d/other#n" + std::to_string(i);
      para.documentName = "https://docs.google.com/d/other";
      para.serviceId = "https://docs.google.com";
      para.text = i % 3 == 0 ? secret : otherGen.paragraph(4, 6);
      EXPECT_EQ(plugin.engine().decide(para).violation(), i % 3 == 0);
      DecisionRequest draft;
      draft.segmentName = otherDraft;
      draft.documentName = otherDraft;
      draft.serviceId = "https://wiki.corp";
      std::string text = otherGen.paragraph(3, 4);
      if (i % 2 == 0) {
        text += "\n\n" + otherGen.paragraph(3, 4) + "\n\n" +
                otherGen.paragraph(3, 4);
      }
      draft.text = std::move(text);
      (void)plugin.engine().decideText(draft);
    }
  });

  for (int i = 0; i < kRounds; ++i) {
    // Each Docs edit decides paragraph and document units, then sends an
    // XHR the plug-in probes.
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
  other.join();

  // Both last drafts were short: their stale paragraphs are gone.
  for (const std::string& name :
       {std::string("https://wiki.corp/edit/race/draft"), otherDraft}) {
    EXPECT_NE(plugin.tracker().segmentByName(name + "#p0"), nullptr) << name;
    EXPECT_EQ(plugin.tracker().segmentByName(name + "#p2"), nullptr) << name;
  }
  EXPECT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kViolation);
}

}  // namespace
}  // namespace bf::core
