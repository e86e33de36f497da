#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "util/json_text.h"

namespace bf::obs {

namespace {

/// Shortest round-trippable-enough rendering: integers without a decimal
/// point, everything else via %g (matches Prometheus client conventions
/// closely enough for golden tests).
std::string formatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

const char* kindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string escapeWith(std::string_view in, bool escapeQuote) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        if (escapeQuote) {
          out += "\\\"";
          break;
        }
        [[fallthrough]];
      default:
        out += c;
    }
  }
  return out;
}

void appendStringArray(std::ostringstream& os, const char* key,
                       const std::vector<std::string>& values) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << util::escapeJsonString(values[i]) << "\"";
  }
  os << "]";
}

}  // namespace

std::string escapeLabelValue(std::string_view value) {
  return escapeWith(value, /*escapeQuote=*/true);
}

std::string escapeHelpText(std::string_view help) {
  return escapeWith(help, /*escapeQuote=*/false);
}

std::string toPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  for (const MetricValue& m : snapshot.metrics) {
    if (!m.help.empty()) {
      os << "# HELP " << m.name << " " << escapeHelpText(m.help) << "\n";
    }
    os << "# TYPE " << m.name << " " << kindName(m.kind) << "\n";
    switch (m.kind) {
      case MetricKind::kCounter:
        os << m.name << " " << m.counterValue << "\n";
        break;
      case MetricKind::kGauge:
        os << m.name << " " << formatDouble(m.gaugeValue) << "\n";
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = m.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.bucketCounts[i];
          os << m.name << "_bucket{le=\""
             << escapeLabelValue(formatDouble(h.bounds[i])) << "\"} "
             << cumulative << "\n";
        }
        // The +Inf bucket must stay cumulative-monotonic even when a
        // snapshot races concurrent observers (relaxed bucket adds can be
        // visible before the matching count_ add).
        cumulative += h.bucketCounts[h.bounds.size()];
        os << m.name << "_bucket{le=\"+Inf\"} "
           << (h.count > cumulative ? h.count : cumulative) << "\n";
        os << m.name << "_sum " << formatDouble(h.sum) << "\n";
        os << m.name << "_count " << h.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string toJson(const DecisionTrace& trace) {
  std::ostringstream os;
  os << "{\"decision_id\":" << trace.decisionId
     << ",\"trace_id\":" << trace.traceId
     << ",\"sampled\":" << (trace.sampled ? "true" : "false")
     << ",\"ingress\":\"" << util::escapeJsonString(trace.ingress)
     << "\",\"segment\":\"" << util::escapeJsonString(trace.segmentName)
     << "\",\"document\":\"" << util::escapeJsonString(trace.documentName)
     << "\",\"service\":\"" << util::escapeJsonString(trace.serviceId)
     << "\",\"action\":\"" << util::escapeJsonString(trace.action)
     << "\",\"violation\":" << (trace.violation ? "true" : "false")
     << ",\"durability_degraded\":"
     << (trace.durabilityDegraded ? "true" : "false")
     << ",\"bytes_scanned\":" << trace.bytesScanned
     << ",\"total_ms\":" << formatDouble(trace.totalMs) << ",\"stages\":{";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (i > 0) os << ",";
    os << "\"" << stageName(static_cast<Stage>(i))
       << "_ns\":" << trace.stages.nanos[i];
  }
  os << "},\"hits\":[";
  for (std::size_t i = 0; i < trace.hits.size(); ++i) {
    const DecisionTraceHit& h = trace.hits[i];
    if (i > 0) os << ",";
    os << "{\"source\":\"" << util::escapeJsonString(h.sourceName)
       << "\",\"score\":" << formatDouble(h.score)
       << ",\"threshold\":" << formatDouble(h.threshold)
       << ",\"overlap\":" << h.overlap << "}";
  }
  os << "]";
  appendStringArray(os, "violating_tags", trace.violatingTags);
  appendStringArray(os, "labels_consulted", trace.labelsConsulted);
  appendStringArray(os, "secret_hits", trace.secretHits);
  // contentPreview is already the redacted form (sec::redact output); the
  // raw text never reaches a DecisionTrace.
  os << ",\"content_preview\":\""
     << util::escapeJsonString(trace.contentPreview) << "\"}";
  return os.str();
}

std::string toJson(const FlightRecorder& recorder) {
  std::ostringstream os;
  os << "{\"schema\":\"bf-flight-v1\",\"decisions\":[";
  bool first = true;
  for (const DecisionTrace& t : recorder.recent()) {
    if (!first) os << ",";
    first = false;
    os << toJson(t);
  }
  os << "]}";
  return os.str();
}

}  // namespace bf::obs
