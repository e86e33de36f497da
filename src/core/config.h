// BrowserFlow configuration.
#pragma once

#include <cstdint>
#include <string>

#include "flow/tracker.h"

namespace bf::core {

/// What the enforcement module does when an upload violates the policy
/// (paper S3: "either permitting the data upload or preventing it, e.g. by
/// encrypting the data before transmission"; the default is the advisory
/// model — warn, let the user decide).
enum class EnforcementMode : std::uint8_t {
  kWarn = 0,     ///< let the upload proceed, surface a warning (advisory)
  kBlock = 1,    ///< suppress the outgoing request
  kEncrypt = 2,  ///< encrypt the payload before transmission
};

/// What a degraded decision does when the engine skips the full lookup
/// pipeline (open circuit breaker). Either way the decision is flagged
/// `degraded` and recorded in the TDM audit log — degradation is visible,
/// never silent.
enum class DegradedMode : std::uint8_t {
  kFailOpen = 0,   ///< allow the upload, leave an audit record
  kFailClosed = 1, ///< block the upload until the engine recovers
};

/// Robustness knobs for the decision engine. The default latency budget
/// (<= 0) keeps the breaker off unless a deployment opts in.
struct ResilienceConfig {
  /// Circuit breaker around the disclosure lookup: a lookup slower than
  /// this budget counts as slow; `breakerTripThreshold` consecutive slow
  /// lookups open the breaker. <= 0 disables the breaker.
  double breakerLatencyBudgetMs = 0.0;
  int breakerTripThreshold = 5;
  /// While open, this many decisions skip the lookup (degraded) before a
  /// half-open probe runs the real pipeline again.
  int breakerOpenDecisions = 50;
  DegradedMode degradedMode = DegradedMode::kFailOpen;
};

struct BrowserFlowConfig {
  /// Fingerprinting and disclosure parameters. Defaults follow the paper's
  /// evaluation (S6.1): 32-bit hashes, 15-char n-grams, 30-char windows,
  /// T_par = 0.5.
  flow::TrackerConfig tracker;
  EnforcementMode mode = EnforcementMode::kWarn;
  /// Key material for EnforcementMode::kEncrypt.
  std::string orgSecret = "browserflow-org-secret";
  /// Overload / fault handling for the decision engine (all off by default).
  ResilienceConfig resilience;
};

}  // namespace bf::core
