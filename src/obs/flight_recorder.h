// Decision flight recorder: the last N complete decision traces, retained
// in a lock-rank-compliant ring for post-hoc explanation.
//
// Retention is head-sampled — every traceSampleEvery()-th trace keeps its
// full record — plus an always-keep rule for anything a human will ask
// about: blocked/warned (violation) decisions and decisions made while
// durability was degraded. All other decisions only consume a decision id
// (one atomic add), which keeps the recorder off the hot path.
//
// FlightRecorder::explain(decisionId) answers "why was this upload allowed
// or blocked?" with the structured record: ingress, matched segments with
// disclosure scores vs thresholds, policy labels consulted and per-stage
// durations. src/obs/export.cpp renders records as JSON for
// scripts/bf_explain.py.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/stage.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bf::obs {

/// One matched disclosing source: the "why" of a verdict.
struct DecisionTraceHit {
  std::string sourceName;
  double score = 0.0;      ///< disclosure score of the match
  double threshold = 0.0;  ///< threshold it was compared against
  std::uint64_t overlap = 0;
};

/// The complete causal record of one decision: ingress → stages → verdict.
struct DecisionTrace {
  std::uint64_t decisionId = 0;  ///< key for explain(); recorder-assigned
  std::uint64_t traceId = 0;     ///< links the records of one causal flow
  bool sampled = false;  ///< head-sampling verdict of the trace

  std::string ingress;  ///< "plugin.paragraph", "dlp.appliance", ...
  std::string segmentName;
  std::string documentName;
  std::string serviceId;

  std::string action = "allow";  ///< "allow"/"warn"/"block"/"encrypt"/"flag"
  bool violation = false;
  /// The durability manager was unhealthy when this decision was made
  /// (core/decision_engine.h kDurabilityDegraded). Always retained.
  bool durabilityDegraded = false;

  std::uint64_t bytesScanned = 0;
  StageBreakdown stages;  ///< per-stage nanoseconds
  double totalMs = 0.0;

  std::vector<DecisionTraceHit> hits;  ///< matched segments
  std::vector<std::string> violatingTags;
  std::vector<std::string> labelsConsulted;
  std::vector<std::string> secretHits;
  /// Redacted preview of the checked content (sec::redact output: a few
  /// edge characters plus the length). NEVER raw text — the sec type layer
  /// plus scripts/bftaint.py enforce that only declassified forms land
  /// here.
  std::string contentPreview;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// The process-wide recorder every decision path reports to.
  [[nodiscard]] static FlightRecorder& instance();

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Allocates the next decision id (lock-free). The fast path for
  /// decisions that are not retained: they still get a stable id so logs
  /// and futures can reference them.
  std::uint64_t nextDecisionId() noexcept;

  /// Retains `trace` (assigning a decision id if it has none) when its
  /// sampling bit or always-keep rule says so; otherwise only consumes an
  /// id. Returns the decision id either way.
  std::uint64_t record(DecisionTrace trace);

  /// The retained record for `decisionId`, if it is still in the ring.
  [[nodiscard]] std::optional<DecisionTrace> explain(
      std::uint64_t decisionId) const;

  /// All retained records, oldest first.
  [[nodiscard]] std::vector<DecisionTrace> recent() const;

  /// Replaces the ring with an empty one of `capacity` slots.
  void setCapacity(std::size_t capacity);
  void clear();

  /// Highest decision id handed out so far (0 before the first).
  [[nodiscard]] std::uint64_t lastDecisionId() const noexcept;

 private:
  // Rank 88: records are written after the engine releases its pipeline
  // locks, but explain() may run under outer locks (e.g. a caller holding
  // the engine's state lock), so the recorder nests inside them.
  mutable util::Mutex mutex_{util::kRankFlightRecorder,
                             "FlightRecorder.mutex_"};
  std::vector<DecisionTrace> ring_ BF_GUARDED_BY(mutex_);
  std::size_t capacity_ BF_GUARDED_BY(mutex_);
  std::uint64_t retained_ BF_GUARDED_BY(mutex_) = 0;  // next: retained_ % cap
  std::atomic<std::uint64_t> nextId_{1};
};

}  // namespace bf::obs
