// The benchmark's workloads (README.md in this directory explains each).
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Runs one workload end to end: corpus generation, set-up, the measured
/// phases and the correctness checks. With `options.trace` the report
/// carries the per-layer metrics instead of the end-to-end ones.
[[nodiscard]] Report runWorkload(const RunOptions& options);

}  // namespace e2e
