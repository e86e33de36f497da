// DecisionEngine + DurabilityManager wiring: the engine drives periodic
// checkpointing from the decision path, and durability failures never
// change a verdict (DESIGN.md §11).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/network.h"
#include "core/decision_engine.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "flow/snapshot.h"
#include "flow/wal.h"
#include "io/fault_vfs.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "tdm/policy_snapshot.h"
#include "util/clock.h"

namespace bf::core {
namespace {

class EngineDurabilityTest : public ::testing::Test {
 protected:
  EngineDurabilityTest()
      : rng_(11),
        gen_(&rng_),
        tracker_(flow::TrackerConfig{}, &clock_),
        policy_(&clock_),
        engine_(config_, &tracker_, &policy_) {
    dir_ = "/tmp/bf_engine_durability_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    (void)std::system(("rm -rf '" + dir_ + "'").c_str());
    policy_.services().upsert({"itool", "Interview Tool",
                               tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
    policy_.services().upsert(
        {"gdocs", "Google Docs", tdm::TagSet{}, tdm::TagSet{}});
  }

  ~EngineDurabilityTest() override {
    (void)std::system(("rm -rf '" + dir_ + "'").c_str());
  }

  flow::DurabilityConfig configFor(std::uint64_t checkpointEvery) {
    flow::DurabilityConfig cfg;
    cfg.directory = dir_;
    cfg.checkpointEveryRecords = checkpointEvery;
    return cfg;
  }

  /// A config whose storage runs through `fault`, with every append
  /// synced, so a scheduled WAL write fault fails the append it hits.
  flow::DurabilityConfig faultyConfig(io::FaultVfs* fault) {
    flow::DurabilityConfig cfg = configFor(1u << 30);
    cfg.vfs = fault;
    cfg.syncEachAppend = true;
    return cfg;
  }

  /// Fails the next WAL write, and with it the next append.
  static void failNextWalWrite(io::FaultVfs& fault) {
    fault.failNext(".bfw", 1, io::StorageFaultKind::kEnospc);
  }

  DecisionRequest requestFor(const std::string& name,
                             const std::string& text) {
    DecisionRequest req;
    req.segmentName = "gdocs/" + name + "#p0";
    req.documentName = "gdocs/" + name;
    req.serviceId = "gdocs";
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
  std::string dir_;
};

TEST_F(EngineDurabilityTest, HealthyWithoutAManagerAttached) {
  const Decision d = engine_.decide(requestFor("doc", gen_.paragraph(4, 6)));
  EXPECT_FALSE(d.durabilityDegraded);
}

TEST_F(EngineDurabilityTest, DecisionPathDrivesPeriodicCheckpoints) {
  flow::DurabilityManager mgr(configFor(/*checkpointEvery=*/3));
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);
  EXPECT_TRUE(mgr.healthy());

  const auto before = obs::registry().snapshot();
  // Each decision observes one new segment => one WAL record; at three
  // records the post-decision maintain() must roll a checkpoint
  // while still holding the engine's state mutex.
  for (int i = 0; i < 7; ++i) {
    const Decision d = engine_.decide(
        requestFor("doc" + std::to_string(i), gen_.paragraph(4, 6)));
  }
  const auto delta = obs::registry().snapshot().diff(before);
  EXPECT_GE(delta.counterValue("bf_checkpoints_total"), 2u);
  EXPECT_TRUE(mgr.healthy());
}

TEST_F(EngineDurabilityTest, CheckpointRolledByADecisionIsInItsLatency) {
  // A decision that rolls a checkpoint holds stateMutex_ until the
  // checkpoint is written, so its response time and the latency histogram
  // include that write.
  flow::DurabilityManager mgr(configFor(/*checkpointEvery=*/1));
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);
  // Logged but not yet checkpointed: only the decision path runs
  // maintenance, so the next decision's checkpoint exports all of them.
  for (int i = 0; i < 300; ++i) {
    const std::string name = "wiki/preload" + std::to_string(i);
    tracker_.observeSegment(flow::SegmentKind::kParagraph, name + "#p0", name,
                            "wiki", gen_.paragraph(4, 6));
  }

  const auto before = obs::registry().snapshot();
  const Decision d = engine_.decide(requestFor("doc", gen_.paragraph(4, 6)));
  const auto after = obs::registry().snapshot();
  const auto delta = after.diff(before);
  ASSERT_EQ(delta.counterValue("bf_checkpoints_total"), 1u);
  const double checkpointMs = after.gaugeValue("bf_checkpoint_last_ms");
  ASSERT_GT(checkpointMs, 0.0);
  EXPECT_GE(d.responseTimeMs, checkpointMs);
  const obs::MetricValue* latency = delta.find("bf_decision_latency_ms");
  ASSERT_NE(latency, nullptr);
  ASSERT_EQ(latency->histogram.count, 1u);
  EXPECT_DOUBLE_EQ(latency->histogram.sum, d.responseTimeMs);
  engine_.setDurability(nullptr);
  tracker_.attachWal(nullptr);
}

TEST_F(EngineDurabilityTest, StateSurvivesCrashAndAnswersSameDecisions) {
  const std::string secret = gen_.paragraph(6, 9);
  {
    flow::DurabilityManager mgr(configFor(1u << 30));
    ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
    engine_.setDurability(&mgr);
    tracker_.observeSegment(flow::SegmentKind::kParagraph, "itool/eval#p0",
                            "itool/eval", "itool", secret);
    policy_.onSegmentObserved("itool/eval#p0", "itool");
    const Decision live = engine_.decide(requestFor("leak", secret));
    EXPECT_EQ(live.action, Decision::Action::kWarn);
    engine_.setDurability(nullptr);
    tracker_.attachWal(nullptr);
  }  // "crash": the manager (and its WAL fd) is gone

  // A new process: fresh tracker, policy, engine — recovered from disk.
  util::LogicalClock clock2;
  flow::FlowTracker restored(flow::TrackerConfig{}, &clock2);
  flow::DurabilityManager mgr2(configFor(1u << 30));
  auto stats = mgr2.recoverAndAttach(restored);
  ASSERT_TRUE(stats.ok()) << stats.errorMessage();
  clock2.advanceTo(stats.value().maxTimestamp + 1);

  tdm::TdmPolicy policy2(&clock2);
  policy2.services().upsert({"itool", "Interview Tool",
                             tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
  policy2.services().upsert(
      {"gdocs", "Google Docs", tdm::TagSet{}, tdm::TagSet{}});
  policy2.onSegmentObserved("itool/eval#p0", "itool");
  DecisionEngine engine2(config_, &restored, &policy2);
  engine2.setDurability(&mgr2);

  const Decision d = engine2.decide(requestFor("leak2", secret));
  EXPECT_EQ(d.action, Decision::Action::kWarn);
  ASSERT_FALSE(d.hits.empty());
  EXPECT_EQ(d.hits[0].sourceName, "itool/eval#p0");
}

TEST_F(EngineDurabilityTest, WalFailureTurnsUnhealthyButDecisionsContinue) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/51);
  flow::DurabilityConfig cfg = faultyConfig(&fault);
  cfg.repairBaseDelayMs = 0.0;  // repair on the next decision
  cfg.repairMaxDelayMs = 0.0;
  flow::DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);
  ASSERT_TRUE(mgr.healthy());

  const testutil::CounterDelta counted;
  failNextWalWrite(fault);
  const Decision d =
      engine_.decide(requestFor("doc", gen_.paragraph(4, 6)));
  EXPECT_EQ(d.action, Decision::Action::kAllow);
  EXPECT_TRUE(d.durabilityDegraded);
  EXPECT_FALSE(mgr.healthy());
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 1u);

  // The next decision's maintenance repairs; its verdict is unchanged.
  EXPECT_EQ(engine_.decide(requestFor("doc", gen_.paragraph(4, 6))).action,
            Decision::Action::kAllow);
  EXPECT_TRUE(mgr.healthy());
  EXPECT_EQ(counted("bf_wal_repairs_total"), 1u);

  // Detaching restores the no-manager default: decisions carry no flag.
  engine_.setDurability(nullptr);
  tracker_.attachWal(nullptr);
  EXPECT_FALSE(engine_.decide(requestFor("doc2", gen_.paragraph(4, 6)))
                   .durabilityDegraded);
}

TEST_F(EngineDurabilityTest, CheckpointDurationHistogramStaysBounded) {
  flow::DurabilityManager mgr(configFor(/*checkpointEvery=*/3));
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);
  const auto before = obs::registry().snapshot();
  for (int i = 0; i < 10; ++i) {
    (void)engine_.decide(
        requestFor("hist" + std::to_string(i), gen_.paragraph(4, 6)));
  }
  const auto delta = obs::registry().snapshot().diff(before);
  const obs::MetricValue* m = delta.find("bf_checkpoint_duration_us");
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->histogram.count, 3u);
  // The checkpoint runs on the decision path under stateMutex_: its cost
  // for this small state must stay bounded (worst observation < 250 ms).
  EXPECT_LT(m->histogram.max, 250000.0);
  engine_.setDurability(nullptr);
  tracker_.attachWal(nullptr);
}

TEST_F(EngineDurabilityTest, DurabilityDegradedFlagAndAuditOnHealthFlips) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/52);
  flow::DurabilityConfig cfg = faultyConfig(&fault);
  cfg.repairBaseDelayMs = 0.0;  // repair on the next decision
  cfg.repairMaxDelayMs = 0.0;
  flow::DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);

  const testutil::CounterDelta counted;
  failNextWalWrite(fault);
  const Decision hit = engine_.decide(requestFor("d1", gen_.paragraph(4, 6)));
  EXPECT_TRUE(hit.durabilityDegraded);
  EXPECT_FALSE(mgr.healthy());
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 1u);

  // The next decision's maintenance pass repairs (backoff 0) and flips
  // health back; the decision itself reports the restored state.
  const Decision healed =
      engine_.decide(requestFor("d2", gen_.paragraph(4, 6)));
  EXPECT_FALSE(healed.durabilityDegraded);
  EXPECT_TRUE(mgr.healthy());
  EXPECT_EQ(counted("bf_wal_repairs_total"), 1u);

  // Exactly one audit record per flip, not one per degraded decision.
  const auto degradedAudits =
      policy_.audit().byKind(tdm::AuditRecord::Kind::kDecisionDegraded);
  ASSERT_EQ(degradedAudits.size(), 2u);
  EXPECT_EQ(degradedAudits[0].justification, kDurabilityDegraded);
  EXPECT_EQ(degradedAudits[1].justification, kDurabilityRestored);
  engine_.setDurability(nullptr);
  tracker_.attachWal(nullptr);
}

TEST_F(EngineDurabilityTest, FlightRecorderRetainsDurabilityDegradedWindow) {
  obs::setTraceSampleEvery(1u << 30);  // head sampling off: keep rule only
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/53);
  flow::DurabilityConfig cfg = faultyConfig(&fault);
  cfg.repairBaseDelayMs = 3600000.0;  // stay degraded for the whole test
  cfg.repairMaxDelayMs = 3600000.0;
  flow::DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);

  const Decision ok = engine_.decide(requestFor("ok", gen_.paragraph(4, 6)));
  EXPECT_FALSE(
      obs::FlightRecorder::instance().explain(ok.decisionId).has_value());

  const testutil::CounterDelta counted;
  failNextWalWrite(fault);
  const Decision bad = engine_.decide(requestFor("bad", gen_.paragraph(4, 6)));
  ASSERT_TRUE(bad.durabilityDegraded);
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 1u);
  const auto record = obs::FlightRecorder::instance().explain(bad.decisionId);
  ASSERT_TRUE(record.has_value())
      << "durability-degraded decisions are always-keep";
  EXPECT_TRUE(record->durabilityDegraded);
  EXPECT_EQ(record->action, "allow");
  // The checkpoint a repair takes re-covers the lost record.
  ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  EXPECT_TRUE(mgr.healthy());

  obs::setTraceSampleEvery(16);  // restore the default for other tests
  engine_.setDurability(nullptr);
  tracker_.attachWal(nullptr);
}

TEST_F(EngineDurabilityTest, XhrUploadCarriesDurabilityDegradedFlag) {
  // Uploads run through the engine like every other verdict, so a decision
  // made while the WAL is poisoned is flagged and always-keep.
  obs::setTraceSampleEvery(1u << 30);  // head sampling off: keep rule only
  cloud::SimNetwork network(&rng_);
  cloud::DocsBackend docsBackend;
  network.registerService("https://docs.google.com", &docsBackend);
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/54);
  flow::DurabilityConfig cfg = faultyConfig(&fault);
  cfg.repairBaseDelayMs = 3600000.0;  // stay degraded for the whole test
  cfg.repairMaxDelayMs = 3600000.0;
  flow::DurabilityManager mgr(cfg);
  BrowserFlowPlugin plugin(BrowserFlowConfig{}, &clock_);
  ASSERT_TRUE(mgr.recoverAndAttach(plugin.tracker()).ok());
  plugin.engine().setDurability(&mgr);
  const testutil::CounterDelta counted;
  failNextWalWrite(fault);
  plugin.observeServiceDocument("https://itool.corp", "https://itool.corp/a",
                                gen_.paragraph(4, 6));
  EXPECT_GE(counted("bf_wal_records_lost_total"), 1u);
  {
    browser::Browser browser(&network);
    browser.addExtension(&plugin);
    browser::Page& page = browser.openTab("https://docs.google.com/d/wal");
    cloud::DocsClient docs(page, "wal");
    docs.openDocument();
    EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(6, 9)), 200);
  }

  bool found = false;
  for (const auto& record : obs::FlightRecorder::instance().recent()) {
    if (record.ingress != "plugin.upload" ||
        record.segmentName != "https://docs.google.com/d/wal/xhr#p0") {
      continue;
    }
    found = true;
    EXPECT_TRUE(record.durabilityDegraded);
  }
  EXPECT_TRUE(found) << "the upload decision must be retained";
  // The checkpoint a repair takes re-covers the lost records.
  ASSERT_TRUE(mgr.checkpoint(plugin.tracker()).ok());
  EXPECT_TRUE(mgr.healthy());

  obs::setTraceSampleEvery(16);  // restore the default for other tests
  plugin.engine().setDurability(nullptr);
  plugin.tracker().attachWal(nullptr);
}

TEST_F(EngineDurabilityTest, ProbesLeaveTrackerPolicyAndWalUntouched) {
  flow::DurabilityManager mgr(configFor(1u << 30));
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  engine_.setDurability(&mgr);
  const std::string secret = gen_.paragraph(6, 9);
  tracker_.observeSegment(flow::SegmentKind::kParagraph, "itool/eval#p0",
                          "itool/eval", "itool", secret);
  policy_.onSegmentObserved("itool/eval#p0", "itool");
  (void)engine_.decide(requestFor("draft", secret));  // a labelled copy

  const std::string trackerBefore = flow::exportState(tracker_);
  const std::string policyBefore = tdm::exportPolicy(policy_);
  const std::uint64_t walBefore = mgr.wal().stats().appended;

  auto probe = [&](const std::string& text, const std::string& document,
                   flow::SegmentKind kind = flow::SegmentKind::kParagraph) {
    DecisionRequest req;
    req.segmentName = document + "/xhr";
    req.documentName = document;
    req.serviceId = "gdocs";
    req.text = text;
    req.kind = kind;
    req.requestKind = RequestKind::kProbe;
    return req;
  };
  // Unregistered text that discloses a source (a violation), clean text, a
  // multi-paragraph text (paragraph and document units), the registered
  // copy by fingerprint, and a registered segment by name.
  EXPECT_TRUE(engine_.decideText(probe(secret, "gdocs/other")).violation());
  EXPECT_FALSE(
      engine_.decideText(probe(gen_.paragraph(4, 6), "gdocs/other"))
          .violation());
  (void)engine_.decideText(
      probe(gen_.paragraph(4, 6) + "\n\n" + secret, "gdocs/other"));
  EXPECT_TRUE(engine_.decideText(probe(secret, "gdocs/draft")).violation());
  DecisionRequest byName = probe("", "gdocs/draft");
  byName.segmentName = "gdocs/draft#p0";
  EXPECT_TRUE(engine_.decide(byName).violation());

  EXPECT_EQ(flow::exportState(tracker_), trackerBefore);
  EXPECT_EQ(tdm::exportPolicy(policy_), policyBefore);
  EXPECT_EQ(mgr.wal().stats().appended, walBefore) << "probes write no WAL";
  engine_.setDurability(nullptr);
  tracker_.attachWal(nullptr);
}

}  // namespace
}  // namespace bf::core
