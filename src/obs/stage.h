// Per-stage latency attribution for the decision path.
//
// Every decision passes through a fixed set of stages (fingerprint,
// tracker lock wait, tracker lookup, tracker record, policy eval, secret
// scan, WAL append). recordStage() accumulates a stage duration into the
// thread's ScopedStageCollector (the per-decision StageBreakdown that ends
// up in the flight recorder); when the collector scope closes it flushes
// each touched stage into the matching process-wide `bf_stage_*_us`
// histogram. Collector flushes are head-sampled along with the trace (an
// unbiased subsample of the decisions the flight recorder retains);
// recordStage() calls made with no collector installed observe their
// histogram directly.
//
// Timing uses util::fastTicks() (rdtsc on x86-64): a StageTimer costs two
// tick reads plus one thread-local add, and the tick reads are skipped
// outright for traces that lost the head-sampling coin toss. Everything
// compiles down to nearly nothing when provenance is disabled via
// setProvenanceEnabled(false) — the kill switch the <3% overhead budget
// test toggles.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/trace_context.h"
#include "util/clock.h"

namespace bf::obs {

enum class Stage : std::uint8_t {
  kFingerprint = 0,
  kTrackerLockWait,
  kTrackerLookup,
  kTrackerRecord,
  kPolicyEval,
  kSecretScan,
  kWalAppend,
};
inline constexpr std::size_t kStageCount = 7;

/// Stable lowercase stage name ("fingerprint", "tracker_lock_wait", ...).
[[nodiscard]] const char* stageName(Stage stage) noexcept;

/// Per-decision accumulator: total nanoseconds spent in each stage.
struct StageBreakdown {
  std::uint64_t nanos[kStageCount] = {};

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < kStageCount; ++i) t += nanos[i];
    return t;
  }
};

namespace detail {
/// Backing flag for the provenance kill switch; treat as private.
extern std::atomic<bool> g_provenanceEnabled;
}  // namespace detail

/// Process-wide provenance kill switch (default ON). When off, stage
/// timers, flight-recorder retention, and decision-id stamping all become
/// near-free no-ops.
void setProvenanceEnabled(bool enabled) noexcept;
[[nodiscard]] inline bool provenanceEnabled() noexcept {
  return detail::g_provenanceEnabled.load(std::memory_order_relaxed);
}

namespace detail {
/// The thread's installed per-decision accumulator (see
/// ScopedStageCollector). Exposed so the stage-timer fast path — one
/// thread-local add — inlines into callers; treat as private to this
/// header.
extern thread_local StageBreakdown* t_stageCollector;
/// Collector-less path: observes the stage histogram directly.
void observeStageDirect(Stage stage, std::uint64_t nanos) noexcept;
}  // namespace detail

/// Records `nanos` against `stage`: adds into the thread's collector when
/// one is installed (flushed to the histograms at scope exit), otherwise
/// observes the stage histogram directly. No-op when provenance is
/// disabled.
inline void recordStage(Stage stage, std::uint64_t nanos) noexcept {
  if (!provenanceEnabled()) return;
  const std::size_t i = static_cast<std::size_t>(stage);
  if (i >= kStageCount) return;
  if (detail::t_stageCollector != nullptr) {
    detail::t_stageCollector->nanos[i] += nanos;
    return;
  }
  detail::observeStageDirect(stage, nanos);
}

/// Manual variant of StageTimer for sections that cannot be a scope (lock
/// waits): stageStart() returns 0 when provenance is off — or when the
/// ambient trace exists but is not head-sampled, so the tick reads
/// themselves are paid only on the decisions whose breakdown will be
/// flushed (chaos and provenance tests pin setTraceSampleEvery(1) to time
/// every decision). stageEnd() with a 0 start is a no-op.
[[nodiscard]] inline std::uint64_t stageStart() noexcept {
  if (!provenanceEnabled()) return 0;
  const TraceContext& trace = currentTrace();
  if (trace.valid() && !trace.sampled) return 0;
  return util::fastTicks();
}
inline void stageEnd(Stage stage, std::uint64_t startTicks) noexcept {
  if (startTicks == 0) return;
  const std::uint64_t nanos =
      util::fastTicksToNanos(util::fastTicks() - startTicks);
  const std::size_t i = static_cast<std::size_t>(stage);
  // stageStart() already verified provenance was on; a races-with-toggle
  // stray sample is harmless.
  if (detail::t_stageCollector != nullptr) {
    detail::t_stageCollector->nanos[i] += nanos;
    return;
  }
  detail::observeStageDirect(stage, nanos);
}

/// RAII stage timer: measures the scope with fastTicks and records on exit.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) noexcept
      : stage_(stage), startTicks_(stageStart()) {}
  ~StageTimer() { stageEnd(stage_, startTicks_); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  std::uint64_t startTicks_;
};

/// Installs `breakdown` as the calling thread's stage accumulator for the
/// scope's lifetime (restoring any previous one): every recordStage() on
/// this thread adds into it. The engine installs one per decision. On
/// destruction, if the ambient trace is head-sampled (or there is no
/// ambient trace), each touched stage is flushed into its `bf_stage_*_us`
/// histogram.
class ScopedStageCollector {
 public:
  explicit ScopedStageCollector(StageBreakdown* breakdown) noexcept;
  ~ScopedStageCollector();

  ScopedStageCollector(const ScopedStageCollector&) = delete;
  ScopedStageCollector& operator=(const ScopedStageCollector&) = delete;

 private:
  StageBreakdown* breakdown_;
  StageBreakdown* saved_;
};

}  // namespace bf::obs
