// Tests for the FaultInjector decorator: which faults reach the backend,
// seeded sampling, and the registry counts.
#include <gtest/gtest.h>

#include <vector>

#include "cloud/fault_injector.h"
#include "counter_delta.h"

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

TEST(FaultInjector, PreDispatchFaultsNeverReachTheBackend) {
  const testutil::CounterDelta counted;
  RecordingSink sink;
  FaultInjector injector(&sink, /*seed=*/1, FaultConfig{.http5xxProb = 1.0});
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 503);
  injector.setDefaults(FaultConfig{.refusedProb = 1.0});
  const browser::HttpResponse refused =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(refused.status, 0);
  EXPECT_EQ(refused.body, kFaultRefusedBody);
  // A fault-free profile: the healthy backend answers again.
  injector.setDefaults({});
  EXPECT_EQ(injector.handle(requestTo("https://a.example")).status, 200);
  // Pre-dispatch faults never reached the inner sink.
  EXPECT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(counted("bf_fault_injected_total"), 3u);
  EXPECT_EQ(counted("bf_fault_http5xx_total"), 2u);
  EXPECT_EQ(counted("bf_fault_refused_total"), 1u);
  EXPECT_EQ(counted("bf_fault_requests_total"), 4u);
}

TEST(FaultInjector, ResetAndTimeoutDispatchBeforeLosingResponse) {
  RecordingSink sink;
  FaultInjector injector(&sink, 1, FaultConfig{.resetProb = 1.0});
  const browser::HttpResponse reset =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(reset.status, 0);
  EXPECT_EQ(reset.body, kFaultResetBody);
  injector.setDefaults(FaultConfig{.timeoutProb = 1.0});
  const browser::HttpResponse timeout =
      injector.handle(requestTo("https://a.example"));
  EXPECT_EQ(timeout.status, 0);
  EXPECT_EQ(timeout.body, kFaultTimeoutBody);
  // Post-dispatch faults: the backend DID process both requests.
  EXPECT_EQ(sink.received.size(), 2u);
}

// ---- probabilistic faults ----------------------------------------------------

TEST(FaultInjector, SeededSamplingIsDeterministic) {
  const testutil::CounterDelta counted;
  RecordingSink sinkA, sinkB;
  const FaultConfig config = FaultConfig::uniformRate(0.5);
  FaultInjector a(&sinkA, 99, config);
  FaultInjector b(&sinkB, 99, config);
  std::uint64_t faulted = 0;
  for (int i = 0; i < 50; ++i) {
    const browser::HttpResponse ra = a.handle(requestTo("https://a.example"));
    const browser::HttpResponse rb = b.handle(requestTo("https://a.example"));
    EXPECT_EQ(ra.status, rb.status) << "request " << i;
    EXPECT_EQ(ra.body, rb.body) << "request " << i;
    if (ra.status != 200) ++faulted;
  }
  EXPECT_GT(faulted, 0u) << "a 50% rate over 50 requests must fire";
  // Every fault is counted once, in the registry, for both injectors.
  EXPECT_EQ(counted("bf_fault_injected_total"), 2 * faulted);
}

}  // namespace
}  // namespace bf::cloud
