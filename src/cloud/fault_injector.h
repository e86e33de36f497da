// FaultInjector: a RequestSink decorator that makes the simulated network
// misbehave on purpose.
//
// BrowserFlow decides every upload before it leaves; what the network does
// afterwards must never change a verdict. The injector lets tests show
// that: it sits between the browser (after the plug-in's interception —
// blocked uploads never reach it) and the SimNetwork, and injects
// deterministic, seeded faults:
//
//   kHttp5xx   an upstream 503 burst; the request is NOT dispatched to the
//              backend (the proxy rejected it);
//   kRefused   connection refused before dispatch (status 0, body
//              "bf-fault: refused");
//   kReset     connection reset AFTER dispatch: the backend processed the
//              request but the response was lost (status 0, "bf-fault:
//              reset");
//   kTimeout   a latency spike past the client's deadline, also after
//              dispatch (status 0, "bf-fault: timeout").
//
// Fault selection is per-request from a seeded Rng; a test that needs one
// kind sets that kind's probability to 1.0. Everything is metered via
// bf::obs (bf_fault_*).
#pragma once

#include <cstdint>
#include <string_view>

#include "browser/http.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace bf::cloud {

/// Marker prefix the injector puts on the bodies of synthesised network
/// errors, so a test can tell fault flavours apart (a real client would
/// read the socket error; the simulation reads the body).
inline constexpr std::string_view kFaultBodyPrefix = "bf-fault:";
inline constexpr std::string_view kFaultRefusedBody = "bf-fault: refused";
inline constexpr std::string_view kFaultResetBody = "bf-fault: reset";
inline constexpr std::string_view kFaultTimeoutBody = "bf-fault: timeout";

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kHttp5xx,
  kRefused,
  kReset,
  kTimeout,
};

/// Fault probabilities per request. Kinds are sampled in declaration order;
/// at most one fault fires per request.
struct FaultConfig {
  double http5xxProb = 0.0;
  double refusedProb = 0.0;
  double resetProb = 0.0;
  double timeoutProb = 0.0;

  /// Spreads `rate` evenly over the failing kinds (5xx, refused, reset,
  /// timeout) — the chaos-test workhorse.
  [[nodiscard]] static FaultConfig uniformRate(double rate) {
    FaultConfig c;
    c.http5xxProb = c.refusedProb = c.resetProb = c.timeoutProb = rate / 4.0;
    return c;
  }
};

class FaultInjector final : public browser::RequestSink {
 public:
  /// Wraps `inner` (not owned); `seed` drives fault sampling.
  FaultInjector(browser::RequestSink* inner, std::uint64_t seed,
                FaultConfig defaults = {});

  /// Replaces the fault profile.
  void setDefaults(FaultConfig config) BF_EXCLUDES(mutex_);

  /// Thread-safe: fault selection (the rng draw) runs under the injector's
  /// leaf mutex; the inner sink is dispatched to OUTSIDE the critical
  /// section, so a slow backend never serialises other requests.
  browser::HttpResponse handle(const browser::HttpRequest& req) override
      BF_EXCLUDES(mutex_);

 private:
  [[nodiscard]] FaultKind pickFault() BF_EXCLUDES(mutex_);

  browser::RequestSink* inner_;
  mutable util::Mutex mutex_{util::kRankFaultInjector, "FaultInjector.mutex_"};
  util::Rng rng_ BF_GUARDED_BY(mutex_);
  FaultConfig defaults_ BF_GUARDED_BY(mutex_);
};

}  // namespace bf::cloud
