// Tests for the FaultInjector decorator: scheduled, burst and probabilistic
// faults, and which of them reach the backend.
#include <gtest/gtest.h>

#include <vector>

#include "cloud/fault_injector.h"

namespace bf::cloud {
namespace {

/// Inner sink that records every request it actually receives and answers
/// 200 with a fixed body — the "healthy backend" under the injector.
class RecordingSink final : public browser::RequestSink {
 public:
  browser::HttpResponse handle(const browser::HttpRequest& req) override {
    received.push_back(req);
    return {200, body};
  }
  std::vector<browser::HttpRequest> received;
  std::string body = "saved: 8 paragraphs";
};

browser::HttpRequest requestTo(const std::string& origin) {
  browser::HttpRequest req;
  req.url = origin + "/api/save";
  req.body = "payload";
  return req;
}

// ---- scheduled faults --------------------------------------------------------

TEST(FaultInjector, FailNextSchedulesExactSequence) {
  RecordingSink sink;
  FaultInjector injector(&sink, /*seed=*/1);
  injector.failNext("https://a.example", 2, FaultKind::kHttp5xx);
  injector.failNext("https://a.example", 1, FaultKind::kRefused);

  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  const browser::HttpResponse refused =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(refused.status, 0);
  EXPECT_EQ(refused.body, kFaultRefusedBody);
  // Schedule drained: the healthy backend answers again.
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 200);
  // Pre-dispatch faults never reached the inner sink.
  EXPECT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(injector.faultCount(), 3u);
}

TEST(FaultInjector, SchedulesArePerOrigin) {
  RecordingSink sink;
  FaultInjector injector(&sink, 1);
  injector.failNext("https://a.example", 1, FaultKind::kRefused);
  EXPECT_EQ(injector.handle(requestTo("https://b.example")).status, 200);
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 0);
}

TEST(FaultInjector, ResetAndTimeoutDispatchBeforeLosingResponse) {
  RecordingSink sink;
  FaultInjector injector(&sink, 1);
  injector.failNext("https://a.example", 1, FaultKind::kReset);
  injector.failNext("https://a.example", 1, FaultKind::kTimeout);

  const browser::HttpResponse reset =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(reset.status, 0);
  EXPECT_EQ(reset.body, kFaultResetBody);
  const browser::HttpResponse timeout =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(timeout.status, 0);
  EXPECT_EQ(timeout.body, kFaultTimeoutBody);
  // Post-dispatch faults: the backend DID process both requests.
  EXPECT_EQ(sink.received.size(), 2u);
}

TEST(FaultInjector, TruncateHalvesBodyAndKeepsStatus) {
  RecordingSink sink;
  FaultInjector injector(&sink, 1);
  injector.failNext("https://a.example", 1, FaultKind::kTruncate);
  const browser::HttpResponse resp =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, sink.body.substr(0, sink.body.size() / 2));
}

TEST(FaultInjector, CorruptFlipsBytesAndKeepsStatusAndLength) {
  RecordingSink sink;
  FaultInjector injector(&sink, 1);
  injector.failNext("https://a.example", 1, FaultKind::kCorrupt);
  const browser::HttpResponse resp =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), sink.body.size());
  EXPECT_NE(resp.body, sink.body);
}

TEST(FaultInjector, Http5xxBurstKeepsFailing) {
  RecordingSink sink;
  FaultConfig config;
  config.http5xxBurst = 3;
  FaultInjector injector(&sink, 1, config);
  injector.failNext("https://a.example", 1, FaultKind::kHttp5xx);
  // The scheduled 503 opens a burst: two more requests fail before the
  // origin recovers.
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 200);
}

// ---- probabilistic faults ----------------------------------------------------

TEST(FaultInjector, SeededSamplingIsDeterministic) {
  RecordingSink sinkA, sinkB;
  const FaultConfig config = FaultConfig::uniformRate(0.5);
  FaultInjector a(&sinkA, 99, config);
  FaultInjector b(&sinkB, 99, config);
  for (int i = 0; i < 50; ++i) {
    const browser::HttpResponse ra = a.handle(requestTo("https://a.example"));
    const browser::HttpResponse rb = b.handle(requestTo("https://a.example"));
    EXPECT_EQ(ra.status, rb.status) << "request " << i;
    EXPECT_EQ(ra.body, rb.body) << "request " << i;
  }
  EXPECT_EQ(a.faultCount(), b.faultCount());
  EXPECT_GT(a.faultCount(), 0u) << "a 50% rate over 50 requests must fire";
}

TEST(FaultInjector, PerOriginOverrideBeatsDefaults) {
  RecordingSink sink;
  FaultInjector injector(&sink, 7, FaultConfig::uniformRate(1.0));
  injector.setOriginFaults("https://quiet.example", FaultConfig{});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(injector.handle(requestTo("https://quiet.example")).status, 200);
  }
  // Other origins still use the (always-faulting) defaults.
  EXPECT_NE(injector.handle(requestTo("https://loud.example")).status, 200);
}

}  // namespace
}  // namespace bf::cloud
