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

struct BrowserFlowConfig {
  /// Fingerprinting and disclosure parameters. Defaults follow the paper's
  /// evaluation (S6.1): 32-bit hashes, 15-char n-grams, 30-char windows,
  /// T_par = 0.5.
  flow::TrackerConfig tracker;
  EnforcementMode mode = EnforcementMode::kWarn;
  /// Key material for EnforcementMode::kEncrypt.
  std::string orgSecret = "browserflow-org-secret";
};

}  // namespace bf::core
