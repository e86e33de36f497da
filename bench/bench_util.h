// Shared helpers for the bench harnesses that regenerate the paper's
// tables and figures.
//
// Every bench supports two scales selected by the BF_SCALE environment
// variable:
//   BF_SCALE=quick (default)  reduced datasets, minutes of total runtime
//   BF_SCALE=paper            the paper's dataset sizes (Table 1)
// Output is plain text: one block per figure/table, with the series the
// paper plots, so results can be diffed against EXPERIMENTS.md.
// Set BF_METRICS=1 to append a Prometheus text dump of the process-wide obs
// registry after each figure.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"

namespace bf::bench {

inline bool paperScale() {
  const char* env = std::getenv("BF_SCALE");
  return env != nullptr && std::string(env) == "paper";
}

inline void printHeader(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s  [scale: %s]\n", id, title,
              paperScale() ? "paper" : "quick");
  std::printf("================================================================\n");
}

/// Prints a (x, y) series in a gnuplot-friendly two-column block.
inline void printSeries(const char* name,
                        const std::vector<std::pair<double, double>>& points,
                        const char* xLabel, const char* yLabel) {
  std::printf("\n# series: %s  (%s vs %s)\n", name, yLabel, xLabel);
  for (const auto& [x, y] : points) {
    std::printf("%12.4f  %12.4f\n", x, y);
  }
}

/// Emits one machine-readable result line. scripts/bench_report.py greps
/// stdout for the "RESULT " prefix and parses the rest as a JSON object,
/// so benches can publish named series without a structured-output mode.
/// `json` must be a complete JSON object (the caller formats it).
inline void result(const std::string& json) {
  std::printf("RESULT %s\n", json.c_str());
}

/// What histogram `name` recorded since `before`, a registry snapshot taken
/// when the phase began (empty if the histogram does not exist), as
/// MetricsSnapshot::diff defines it.
inline obs::HistogramData histogramSince(const obs::MetricsSnapshot& before,
                                         std::string_view name) {
  const obs::MetricsSnapshot delta = obs::registry().snapshot().diff(before);
  const obs::MetricValue* metric = delta.find(name);
  return metric != nullptr ? metric->histogram : obs::HistogramData{};
}

/// When BF_METRICS is set (and not "0"), prints the whole obs registry in
/// the Prometheus text format after the figure. Call at the end of each
/// bench main().
inline void dumpMetrics() {
  const char* env = std::getenv("BF_METRICS");
  if (env == nullptr || *env == '\0' || std::string(env) == "0") return;
  std::printf("\n# metrics (prometheus)\n%s",
              obs::toPrometheusText(obs::registry().snapshot()).c_str());
}

}  // namespace bf::bench
