// Decision-engine tests at the document granularity, plus concurrency
// stress from several deciding threads.
#include <gtest/gtest.h>

#include <thread>

#include "core/decision_engine.h"
#include "corpus/text_generator.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace bf::core {
namespace {

class EngineDocumentTest : public ::testing::Test {
 protected:
  EngineDocumentTest()
      : rng_(31),
        gen_(&rng_),
        tracker_(flow::TrackerConfig{}, &clock_),
        policy_(&clock_),
        engine_(config_, &tracker_, &policy_) {
    policy_.services().upsert(
        {"wiki", "Wiki", tdm::TagSet{"tw"}, tdm::TagSet{"tw"}});
    policy_.services().upsert(
        {"gdocs", "Google Docs", tdm::TagSet{}, tdm::TagSet{}});
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  BrowserFlowConfig config_;
  flow::FlowTracker tracker_;
  tdm::TdmPolicy policy_;
  DecisionEngine engine_;
};

TEST_F(EngineDocumentTest, DocumentKindRequestChecksDocumentSources) {
  // A wiki page with a low document threshold: sampling one sentence per
  // paragraph violates at document granularity.
  std::vector<std::string> leads;
  std::string doc;
  for (int i = 0; i < 6; ++i) {
    leads.push_back(gen_.sentence(12, 14));
    if (!doc.empty()) doc += "\n\n";
    doc += leads.back() + " " + gen_.paragraph(6, 6);
  }
  tracker_.observeDocument("wiki/page", "wiki", doc, 0.6, 0.08);
  policy_.onSegmentObserved("wiki/page", "wiki");

  std::string leak;
  for (const auto& s : leads) leak += s + " ";

  DecisionRequest req;
  req.segmentName = "gdocs/doc";
  req.documentName = "gdocs/doc";
  req.serviceId = "gdocs";
  req.text = leak;
  req.kind = flow::SegmentKind::kDocument;
  const Decision d = engine_.decide(req);
  EXPECT_TRUE(d.violation());
  ASSERT_FALSE(d.hits.empty());
  EXPECT_EQ(d.hits[0].kind, flow::SegmentKind::kDocument);
  EXPECT_EQ(d.hits[0].sourceName, "wiki/page");
}

TEST_F(EngineDocumentTest, DocumentDecisionDoesNotPolluteParagraphQueries) {
  const std::string doc = gen_.paragraph(6, 8) + "\n\n" + gen_.paragraph(6, 8);
  DecisionRequest req;
  req.segmentName = "gdocs/d";
  req.documentName = "gdocs/d";
  req.serviceId = "gdocs";
  req.text = doc;
  req.kind = flow::SegmentKind::kDocument;
  engine_.decide(req);
  // No paragraph-kind segment named gdocs/d exists.
  const flow::SegmentRecord* rec = tracker_.segmentByName("gdocs/d");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->kind, flow::SegmentKind::kDocument);
}

TEST_F(EngineDocumentTest, ConcurrentAsyncProducersAreSerialised) {
  // Two threads decide while the main thread decides too: the engine's
  // mutex must keep the stores coherent.
  const std::string base = gen_.paragraph(6, 8);
  tracker_.observeSegment(flow::SegmentKind::kParagraph, "src#p0", "src",
                          "wiki", base);
  policy_.onSegmentObserved("src#p0", "wiki");

  const obs::MetricsSnapshot before = obs::registry().snapshot();
  auto worker = [&](int id) {
    // Thread-local generator: the fixture's rng is not thread-safe.
    util::Rng rng(static_cast<std::uint64_t>(id) * 101);
    corpus::TextGenerator gen(&rng);
    for (int i = 0; i < 25; ++i) {
      DecisionRequest req;
      req.documentName = "t";
      req.documentName += std::to_string(id);
      req.documentName += "-";
      req.documentName += std::to_string(i);
      req.segmentName = req.documentName + "#p0";
      req.serviceId = "gdocs";
      req.text = (i % 2 == 0) ? base : gen.paragraph(5, 7);
      (void)engine_.decide(req);
    }
  };
  std::thread a(worker, 1);
  std::thread b(worker, 2);
  for (int i = 0; i < 25; ++i) {
    DecisionRequest req;
    req.segmentName = "main-" + std::to_string(i) + "#p0";
    req.documentName = "main-" + std::to_string(i);
    req.serviceId = "gdocs";
    req.text = base;
    (void)engine_.decide(req);
  }
  a.join();
  b.join();
  // Every even-numbered thread segment disclosed the source.
  const auto hits = tracker_.checkText(base, "probe");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sourceName, "src#p0");
  const obs::MetricsSnapshot delta = obs::registry().snapshot().diff(before);
  const obs::MetricValue* latency = delta.find("bf_decision_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count, 75u);
}

}  // namespace
}  // namespace bf::core
