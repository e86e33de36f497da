#include "cloud/fault_injector.h"

#include <string>

#include "obs/metrics.h"

namespace bf::cloud {

namespace {
struct FaultMetrics {
  obs::Counter* requests;      // bf_fault_requests_total
  obs::Counter* injected;      // bf_fault_injected_total
  obs::Counter* http5xx;       // bf_fault_http5xx_total
  obs::Counter* refused;       // bf_fault_refused_total
  obs::Counter* reset;         // bf_fault_reset_total
  obs::Counter* timeout;       // bf_fault_timeout_total
};
const FaultMetrics& faultMetrics() {
  static const FaultMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    return FaultMetrics{
        &r.counter("bf_fault_requests_total",
                   "Requests that passed through the fault injector"),
        &r.counter("bf_fault_injected_total", "Faults injected (all kinds)"),
        &r.counter("bf_fault_http5xx_total", "Injected upstream 5xx errors"),
        &r.counter("bf_fault_refused_total",
                   "Injected pre-dispatch connection refusals"),
        &r.counter("bf_fault_reset_total",
                   "Injected post-dispatch connection resets"),
        &r.counter("bf_fault_timeout_total",
                   "Injected latency spikes past the client deadline")};
  }();
  return m;
}
}  // namespace

FaultInjector::FaultInjector(browser::RequestSink* inner, std::uint64_t seed,
                             FaultConfig defaults)
    : inner_(inner), rng_(seed), defaults_(defaults) {}

void FaultInjector::setDefaults(FaultConfig config) {
  util::MutexLock lock(mutex_);
  defaults_ = config;
}

FaultKind FaultInjector::pickFault() {
  // One uniform draw partitioned into cumulative intervals, so the overall
  // fault probability is exactly the sum of the per-kind probabilities
  // (uniformRate(r) faults at rate r, and a summed probability of 1.0
  // always faults).
  util::MutexLock lock(mutex_);
  const double u = rng_.uniform01();
  double edge = defaults_.http5xxProb;
  if (u < edge) return FaultKind::kHttp5xx;
  if (u < (edge += defaults_.refusedProb)) return FaultKind::kRefused;
  if (u < (edge += defaults_.resetProb)) return FaultKind::kReset;
  if (u < (edge += defaults_.timeoutProb)) return FaultKind::kTimeout;
  return FaultKind::kNone;
}

browser::HttpResponse FaultInjector::handle(const browser::HttpRequest& req) {
  const FaultMetrics& metrics = faultMetrics();
  metrics.requests->inc();
  // Pick the fault under the mutex, then dispatch to the inner sink WITHOUT
  // holding it: the sink may be slow and must be reachable concurrently
  // from other client threads.
  const FaultKind fault = pickFault();
  if (fault == FaultKind::kNone) return inner_->handle(req);

  metrics.injected->inc();

  switch (fault) {
    case FaultKind::kHttp5xx:
      // Rejected by an upstream intermediary: the backend never sees it.
      metrics.http5xx->inc();
      return {503, std::string(kFaultBodyPrefix) + " 503 upstream unavailable"};
    case FaultKind::kRefused:
      metrics.refused->inc();
      return {0, std::string(kFaultRefusedBody)};
    case FaultKind::kReset: {
      // The backend processes the request; the response is lost in flight.
      metrics.reset->inc();
      (void)inner_->handle(req);
      return {0, std::string(kFaultResetBody)};
    }
    case FaultKind::kTimeout: {
      metrics.timeout->inc();
      (void)inner_->handle(req);
      return {0, std::string(kFaultTimeoutBody)};
    }
    case FaultKind::kNone:
      break;
  }
  return inner_->handle(req);
}

}  // namespace bf::cloud
