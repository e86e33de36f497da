#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "counter_delta.h"
#include "obs/trace_context.h"

namespace bf::obs {
namespace {

DecisionTrace makeTrace(std::uint64_t traceId, bool sampled,
                        bool violation = false,
                        bool durabilityDegraded = false) {
  DecisionTrace t;
  t.traceId = traceId;
  t.sampled = sampled;
  t.violation = violation;
  t.durabilityDegraded = durabilityDegraded;
  t.ingress = "test.ingress";
  t.segmentName = "doc#p1";
  t.documentName = "doc";
  t.serviceId = "svc";
  return t;
}

TEST(FlightRecorderTest, AssignsMonotonicDecisionIds) {
  FlightRecorder recorder(8);
  const std::uint64_t a = recorder.nextDecisionId();
  const std::uint64_t b = recorder.nextDecisionId();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(recorder.lastDecisionId(), b);
}

TEST(FlightRecorderTest, RetainsSampledViolationAndDegraded) {
  FlightRecorder recorder(8);
  const testutil::CounterDelta retained;
  const std::uint64_t sampledId = recorder.record(makeTrace(1, true));
  const std::uint64_t violationId =
      recorder.record(makeTrace(2, false, /*violation=*/true));
  const std::uint64_t degradedId =
      recorder.record(makeTrace(3, false, false, /*durabilityDegraded=*/true));
  EXPECT_TRUE(recorder.explain(sampledId).has_value());
  EXPECT_TRUE(recorder.explain(violationId).has_value());
  EXPECT_TRUE(recorder.explain(degradedId).has_value());
  EXPECT_EQ(retained("bf_flight_retained_total"), 3u);
}

TEST(FlightRecorderTest, UnsampledCleanDecisionsConsumeIdOnly) {
  FlightRecorder recorder(8);
  const testutil::CounterDelta retained;
  const std::uint64_t id = recorder.record(makeTrace(1, false));
  EXPECT_NE(id, 0u);
  EXPECT_FALSE(recorder.explain(id).has_value());
  EXPECT_EQ(retained("bf_flight_retained_total"), 0u);
  // The id was still consumed: the next decision gets a later id.
  EXPECT_GT(recorder.record(makeTrace(2, true)), id);
}

TEST(FlightRecorderTest, ExplainReturnsCompleteRecord) {
  FlightRecorder recorder(8);
  DecisionTrace t = makeTrace(42, true, true);
  t.action = "block";
  t.bytesScanned = 1234;
  t.hits.push_back({"source-doc", 0.8, 0.3, 17});
  t.violatingTags.push_back("ti");
  t.labelsConsulted.push_back("segment:ti");
  t.stages.nanos[static_cast<int>(Stage::kFingerprint)] = 5000;
  const std::uint64_t id = recorder.record(std::move(t));

  const std::optional<DecisionTrace> got = recorder.explain(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->decisionId, id);
  EXPECT_EQ(got->traceId, 42u);
  EXPECT_EQ(got->action, "block");
  EXPECT_EQ(got->bytesScanned, 1234u);
  ASSERT_EQ(got->hits.size(), 1u);
  EXPECT_EQ(got->hits[0].sourceName, "source-doc");
  EXPECT_DOUBLE_EQ(got->hits[0].score, 0.8);
  EXPECT_DOUBLE_EQ(got->hits[0].threshold, 0.3);
  EXPECT_EQ(got->violatingTags, std::vector<std::string>{"ti"});
  EXPECT_EQ(got->stages.nanos[static_cast<int>(Stage::kFingerprint)], 5000u);
}

TEST(FlightRecorderTest, RingEvictsOldestWhenFull) {
  FlightRecorder recorder(4);
  const testutil::CounterDelta retained;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(recorder.record(makeTrace(100 + i, true)));
  }
  // Oldest two fell off; newest four survive oldest-first.
  EXPECT_FALSE(recorder.explain(ids[0]).has_value());
  EXPECT_FALSE(recorder.explain(ids[1]).has_value());
  for (int i = 2; i < 6; ++i) {
    EXPECT_TRUE(recorder.explain(ids[i]).has_value()) << i;
  }
  const std::vector<DecisionTrace> recent = recorder.recent();
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t i = 1; i < recent.size(); ++i) {
    EXPECT_GT(recent[i].decisionId, recent[i - 1].decisionId);
  }
  EXPECT_EQ(retained("bf_flight_retained_total"), 6u);
}

TEST(FlightRecorderTest, SetCapacityAndClearResetTheRing) {
  FlightRecorder recorder(2);
  recorder.record(makeTrace(1, true));
  recorder.setCapacity(8);
  EXPECT_TRUE(recorder.recent().empty());
  for (int i = 0; i < 8; ++i) recorder.record(makeTrace(10 + i, true));
  EXPECT_EQ(recorder.recent().size(), 8u);
  recorder.clear();
  EXPECT_TRUE(recorder.recent().empty());
}

TEST(FlightRecorderTest, ConcurrentRecordersKeepIdsUniqueAndOrdered) {
  FlightRecorder recorder(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(
            makeTrace(static_cast<std::uint64_t>(t) * 1000 + i, true));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.lastDecisionId(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<DecisionTrace> recent = recorder.recent();
  ASSERT_EQ(recent.size(), 64u);
  for (std::size_t i = 1; i < recent.size(); ++i) {
    EXPECT_NE(recent[i].decisionId, recent[i - 1].decisionId);
  }
}

TEST(TraceContextTest, StartAssignsDistinctIdsAndChildKeepsTrace) {
  const TraceContext a = TraceContext::start();
  const TraceContext b = TraceContext::start();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.traceId, b.traceId);

  // An ingress under `a` continues it: same trace, same sampling verdict.
  ScopedTraceContext scope(a);
  const TraceContext continued = ingressTrace();
  EXPECT_EQ(continued.traceId, a.traceId);
  EXPECT_EQ(continued.sampled, a.sampled);
}

TEST(TraceContextTest, SampleEveryControlsHeadSampling) {
  const std::uint32_t saved = traceSampleEvery();
  setTraceSampleEvery(1);
  EXPECT_TRUE(TraceContext::start().sampled);
  setTraceSampleEvery(0);
  EXPECT_FALSE(TraceContext::start().sampled);
  setTraceSampleEvery(saved);
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(currentTrace().valid());
  const TraceContext root = TraceContext::start();
  {
    ScopedTraceContext scope(root);
    EXPECT_EQ(currentTrace().traceId, root.traceId);
    // An ingress inside an active trace continues it.
    EXPECT_EQ(ingressTrace().traceId, root.traceId);
  }
  EXPECT_FALSE(currentTrace().valid());
  // With no ambient trace, an ingress starts a fresh root.
  EXPECT_TRUE(ingressTrace().valid());
}

}  // namespace
}  // namespace bf::obs
