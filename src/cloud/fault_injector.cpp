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
  obs::Counter* truncated;     // bf_fault_truncated_total
  obs::Counter* corrupted;     // bf_fault_corrupted_total
  obs::Histogram* spikeMs;     // bf_fault_timeout_spike_ms
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
                   "Injected latency spikes past the client deadline"),
        &r.counter("bf_fault_truncated_total",
                   "Injected truncated response bodies"),
        &r.counter("bf_fault_corrupted_total",
                   "Injected corrupted response bodies"),
        &r.histogram("bf_fault_timeout_spike_ms",
                     "Simulated latency attributed to timeout faults")};
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

void FaultInjector::setOriginFaults(const std::string& origin,
                                    FaultConfig config) {
  util::MutexLock lock(mutex_);
  perOrigin_[origin] = config;
}

void FaultInjector::failNext(const std::string& origin, int count,
                             FaultKind kind) {
  util::MutexLock lock(mutex_);
  if (count > 0) scheduled_[origin].emplace_back(kind, count);
}

FaultKind FaultInjector::pickFaultLocked(const std::string& origin) {
  auto cit = perOrigin_.find(origin);
  const FaultConfig& cfg = cit != perOrigin_.end() ? cit->second : defaults_;

  // 1. Scripted schedules beat everything (test determinism). A scheduled
  //    5xx opens a burst just like a sampled one.
  auto sit = scheduled_.find(origin);
  if (sit != scheduled_.end() && !sit->second.empty()) {
    auto& [kind, remaining] = sit->second.front();
    const FaultKind k = kind;
    if (--remaining <= 0) sit->second.pop_front();
    if (k == FaultKind::kHttp5xx) burstRemaining_[origin] = cfg.http5xxBurst - 1;
    return k;
  }
  // 2. An active 5xx burst keeps failing the origin.
  auto bit = burstRemaining_.find(origin);
  if (bit != burstRemaining_.end() && bit->second > 0) {
    --bit->second;
    return FaultKind::kHttp5xx;
  }
  // 3. Probabilistic sampling: one uniform draw partitioned into cumulative
  //    intervals, so the overall fault probability is exactly the sum of the
  //    per-kind probabilities (uniformRate(r) faults at rate r, and a summed
  //    probability of 1.0 always faults).
  const double u = rng_.uniform01();
  double edge = cfg.http5xxProb;
  if (u < edge) {
    burstRemaining_[origin] = cfg.http5xxBurst - 1;
    return FaultKind::kHttp5xx;
  }
  if (u < (edge += cfg.refusedProb)) return FaultKind::kRefused;
  if (u < (edge += cfg.resetProb)) return FaultKind::kReset;
  if (u < (edge += cfg.timeoutProb)) return FaultKind::kTimeout;
  if (u < (edge += cfg.truncateProb)) return FaultKind::kTruncate;
  if (u < (edge += cfg.corruptProb)) return FaultKind::kCorrupt;
  return FaultKind::kNone;
}

browser::HttpResponse FaultInjector::handle(const browser::HttpRequest& req) {
  const FaultMetrics& metrics = faultMetrics();
  metrics.requests->inc();
  const std::string origin = browser::originOf(req.url);
  // Pick the fault (and copy the applicable config) under the mutex, then
  // dispatch to the inner sink WITHOUT holding it: the sink may be slow and
  // must be reachable concurrently from other client threads.
  FaultKind fault;
  FaultConfig cfg;
  {
    util::MutexLock lock(mutex_);
    fault = pickFaultLocked(origin);
    auto it = perOrigin_.find(origin);
    cfg = it != perOrigin_.end() ? it->second : defaults_;
  }
  if (fault == FaultKind::kNone) return inner_->handle(req);

  faults_.fetch_add(1, std::memory_order_relaxed);
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
      metrics.spikeMs->observe(cfg.timeoutSpikeMs);
      (void)inner_->handle(req);
      return {0, std::string(kFaultTimeoutBody)};
    }
    case FaultKind::kTruncate: {
      metrics.truncated->inc();
      browser::HttpResponse resp = inner_->handle(req);
      resp.body.resize(resp.body.size() / 2);
      return resp;
    }
    case FaultKind::kCorrupt: {
      metrics.corrupted->inc();
      browser::HttpResponse resp = inner_->handle(req);
      for (std::size_t i = 0; i < resp.body.size(); i += 3) {
        resp.body[i] = static_cast<char>(resp.body[i] ^ 0x5a);
      }
      return resp;
    }
    case FaultKind::kNone:
      break;
  }
  return inner_->handle(req);
}

}  // namespace bf::cloud
