// bf::obs — exposition.
//
// Aggregates have one format: Prometheus text exposition of a
// MetricsSnapshot (HELP/TYPE headers, cumulative `_bucket` lines with `le`
// labels, `_sum`/`_count` for histograms), so snapshots can be diffed with
// standard tooling. Single decisions have one record: the flight
// recorder's, rendered as JSON for scripts/bf_explain.py.
#pragma once

#include <string>
#include <string_view>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace bf::obs {

/// Prometheus text-exposition escaping for label values: \ -> \\,
/// " -> \", newline -> \n.
[[nodiscard]] std::string escapeLabelValue(std::string_view value);
/// Prometheus HELP-line escaping: \ -> \\, newline -> \n.
[[nodiscard]] std::string escapeHelpText(std::string_view help);

[[nodiscard]] std::string toPrometheusText(const MetricsSnapshot& snapshot);

/// One flight-recorder decision record as a JSON object.
[[nodiscard]] std::string toJson(const DecisionTrace& trace);
/// Every retained record, oldest first:
/// {"schema":"bf-flight-v1","decisions":[...]} — the input format of
/// scripts/bf_explain.py.
[[nodiscard]] std::string toJson(const FlightRecorder& recorder);

}  // namespace bf::obs
