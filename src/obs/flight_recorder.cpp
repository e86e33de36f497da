#include "obs/flight_recorder.h"

#include "obs/metrics.h"

namespace bf::obs {
namespace {

struct RecorderMetrics {
  Counter* decisions = nullptr;
  Counter* retained = nullptr;
};

const RecorderMetrics& recorderMetrics() {
  static const RecorderMetrics m = [] {
    RecorderMetrics metrics;
    metrics.decisions = &registry().counter(
        "bf_flight_decisions_total", "Decisions assigned a provenance id");
    metrics.retained = &registry().counter(
        "bf_flight_retained_total", "Decision traces retained in the ring");
    return metrics;
  }();
  return m;
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

std::uint64_t FlightRecorder::nextDecisionId() noexcept {
  recorderMetrics().decisions->inc();
  return nextId_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::record(DecisionTrace trace) {
  if (trace.decisionId == 0) trace.decisionId = nextDecisionId();
  const std::uint64_t id = trace.decisionId;
  const bool keep =
      trace.durabilityDegraded || trace.violation || trace.sampled;
  if (keep) {
    recorderMetrics().retained->inc();
    util::MutexLock lock(mutex_);
    ring_[retained_ % capacity_] = std::move(trace);
    ++retained_;
  }
  return id;
}

std::optional<DecisionTrace> FlightRecorder::explain(
    std::uint64_t decisionId) const {
  util::MutexLock lock(mutex_);
  const std::uint64_t kept = retained_ < capacity_ ? retained_ : capacity_;
  for (std::uint64_t i = 0; i < kept; ++i) {
    const DecisionTrace& t = ring_[(retained_ - 1 - i) % capacity_];
    if (t.decisionId == decisionId) return t;
  }
  return std::nullopt;
}

std::vector<DecisionTrace> FlightRecorder::recent() const {
  util::MutexLock lock(mutex_);
  std::vector<DecisionTrace> out;
  const std::uint64_t kept = retained_ < capacity_ ? retained_ : capacity_;
  out.reserve(kept);
  const std::uint64_t begin = retained_ - kept;
  for (std::uint64_t i = 0; i < kept; ++i) {
    out.push_back(ring_[(begin + i) % capacity_]);
  }
  return out;
}

void FlightRecorder::setCapacity(std::size_t capacity) {
  util::MutexLock lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.assign(capacity_, DecisionTrace{});
  retained_ = 0;
}

void FlightRecorder::clear() {
  util::MutexLock lock(mutex_);
  ring_.assign(capacity_, DecisionTrace{});
  retained_ = 0;
}

std::uint64_t FlightRecorder::lastDecisionId() const noexcept {
  return nextId_.load(std::memory_order_relaxed) - 1;
}

}  // namespace bf::obs
