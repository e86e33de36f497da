#include "obs/stage.h"

#include <atomic>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace bf::obs {

namespace detail {
std::atomic<bool> g_provenanceEnabled{true};
thread_local StageBreakdown* t_stageCollector = nullptr;
}  // namespace detail

namespace {

/// Microsecond ladder for stage durations: individual stages run from
/// sub-microsecond (WAL append to a warm buffer) to tens of milliseconds
/// (tracker lookups over large stores).
std::vector<double> stageBucketsUs() {
  return {1.0,    2.0,    5.0,    10.0,   25.0,    50.0,    100.0,   250.0,
          500.0,  1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 100000.0};
}

struct StageMetrics {
  Histogram* hist[kStageCount] = {};
};

const StageMetrics& stageMetrics() {
  static const StageMetrics metrics = [] {
    // Calibrate the tick clock eagerly, outside any caller's lock hold.
    util::warmFastTicks();
    StageMetrics m;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const Stage stage = static_cast<Stage>(i);
      m.hist[i] = &registry().histogram(
          std::string("bf_stage_") + stageName(stage) + "_us",
          std::string("Decision-path time in the ") + stageName(stage) +
              " stage (us)",
          stageBucketsUs());
    }
    return m;
  }();
  return metrics;
}

}  // namespace

const char* stageName(Stage stage) noexcept {
  switch (stage) {
    case Stage::kFingerprint:
      return "fingerprint";
    case Stage::kTrackerLockWait:
      return "tracker_lock_wait";
    case Stage::kTrackerLookup:
      return "tracker_lookup";
    case Stage::kTrackerRecord:
      return "tracker_record";
    case Stage::kPolicyEval:
      return "policy_eval";
    case Stage::kSecretScan:
      return "secret_scan";
    case Stage::kWalAppend:
      return "wal_append";
  }
  return "unknown";
}

void setProvenanceEnabled(bool enabled) noexcept {
  detail::g_provenanceEnabled.store(enabled, std::memory_order_relaxed);
}

void detail::observeStageDirect(Stage stage, std::uint64_t nanos) noexcept {
  const std::size_t i = static_cast<std::size_t>(stage);
  if (i >= kStageCount) return;
  stageMetrics().hist[i]->observe(static_cast<double>(nanos) / 1000.0);
}

ScopedStageCollector::ScopedStageCollector(StageBreakdown* breakdown) noexcept
    : breakdown_(breakdown), saved_(detail::t_stageCollector) {
  detail::t_stageCollector = breakdown;
}

ScopedStageCollector::~ScopedStageCollector() {
  detail::t_stageCollector = saved_;
  if (breakdown_ == nullptr || !provenanceEnabled()) return;
  // Head-sample the histogram contribution along with the trace: an
  // unbiased subsample of decisions, the same ones the flight recorder
  // retains. Collectors running outside any trace (tests, tools) always
  // flush.
  const TraceContext& trace = currentTrace();
  if (trace.valid() && !trace.sampled) return;
  const StageMetrics& metrics = stageMetrics();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (breakdown_->nanos[i] == 0) continue;
    metrics.hist[i]->observe(static_cast<double>(breakdown_->nanos[i]) /
                             1000.0);
  }
}

}  // namespace bf::obs
