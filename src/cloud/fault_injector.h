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
//              dispatch (status 0, "bf-fault: timeout");
//   kTruncate  response body cut in half (status preserved);
//   kCorrupt   response body bytes flipped (status preserved).
//
// Fault selection is per-request from a seeded Rng; per-origin FaultConfig
// overrides and deterministic failNext() schedules let tests script exact
// failure sequences. Everything is metered via bf::obs (bf_fault_*).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

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
  kTruncate,
  kCorrupt,
};

/// Per-origin (or default) fault probabilities. Kinds are sampled in
/// declaration order; at most one fault fires per request.
struct FaultConfig {
  double http5xxProb = 0.0;
  double refusedProb = 0.0;
  double resetProb = 0.0;
  double timeoutProb = 0.0;
  double truncateProb = 0.0;
  double corruptProb = 0.0;
  /// Consecutive requests (to the same origin) that keep failing with 5xx
  /// once an http5xx fault fires — models an upstream outage, not a blip.
  int http5xxBurst = 1;
  /// Simulated extra latency attributed to a timeout fault.
  double timeoutSpikeMs = 1000.0;

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

  /// Replaces the default fault profile (applies where no origin override
  /// exists).
  void setDefaults(FaultConfig config) BF_EXCLUDES(mutex_);

  /// Per-origin override; pass {} to make an origin fault-free.
  void setOriginFaults(const std::string& origin, FaultConfig config)
      BF_EXCLUDES(mutex_);

  /// Deterministically fails the next `count` requests to `origin` with
  /// `kind`, ahead of any probabilistic sampling. Schedules queue in call
  /// order.
  void failNext(const std::string& origin, int count, FaultKind kind)
      BF_EXCLUDES(mutex_);

  /// Thread-safe: fault selection (rng, schedules, burst state) runs under
  /// the injector's leaf mutex; the inner sink is dispatched to OUTSIDE the
  /// critical section, so a slow backend never serialises other requests.
  browser::HttpResponse handle(const browser::HttpRequest& req) override
      BF_EXCLUDES(mutex_);

  /// Faults injected so far (all kinds).
  [[nodiscard]] std::uint64_t faultCount() const noexcept {
    return faults_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] FaultKind pickFaultLocked(const std::string& origin)
      BF_REQUIRES(mutex_);

  browser::RequestSink* inner_;
  mutable util::Mutex mutex_{util::kRankFaultInjector, "FaultInjector.mutex_"};
  util::Rng rng_ BF_GUARDED_BY(mutex_);
  FaultConfig defaults_ BF_GUARDED_BY(mutex_);
  std::unordered_map<std::string, FaultConfig> perOrigin_
      BF_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::deque<std::pair<FaultKind, int>>>
      scheduled_ BF_GUARDED_BY(mutex_);
  std::unordered_map<std::string, int> burstRemaining_ BF_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> faults_{0};
};

}  // namespace bf::cloud
