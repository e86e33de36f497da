#include "cloud/dlp_appliance.h"

#include "browser/forms.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace_context.h"
#include "text/normalizer.h"
#include "util/hashing.h"
#include "util/stopwatch.h"

namespace bf::cloud {

namespace {
obs::Counter& inspectedCounter() {
  static obs::Counter& c = obs::registry().counter(
      "bf_dlp_inspected_total", "Requests inspected by the DLP appliance");
  return c;
}
obs::Counter& flaggedCounter() {
  static obs::Counter& c = obs::registry().counter(
      "bf_dlp_flagged_total", "Requests flagged by the DLP appliance");
  return c;
}
}  // namespace

DlpAppliance::DlpAppliance(browser::RequestSink* upstream, Config config)
    : upstream_(upstream), config_(config) {}

void DlpAppliance::registerSensitiveDocument(sec::SensitiveView text) {
  if (config_.mode == Mode::kExactChunks) {
    const text::NormalizedText norm = text::normalize(text.raw());
    if (norm.size() < config_.chunkChars) return;
    for (std::size_t i = 0; i + config_.chunkChars <= norm.size();
         i += config_.chunkStride) {
      chunkHashes_.insert(util::fnv1a64(
          std::string_view(norm.text).substr(i, config_.chunkChars)));
    }
  } else {
    fingerprints_.push_back(
        text::fingerprintText(text.raw(), fingerprintConfig_));
  }
}

bool DlpAppliance::inspectText(sec::SensitiveView text) const {
  if (config_.mode == Mode::kExactChunks) {
    // The exact-chunk "fingerprint" is the normalised text's chunk hashes,
    // so the normalisation counts as fingerprint time.
    obs::StageTimer fpTimer(obs::Stage::kFingerprint);
    const text::NormalizedText norm = text::normalize(text.raw());
    if (norm.size() < config_.chunkChars) return false;
    // Check every alignment: an appliance cannot assume chunk boundaries
    // survive the copy.
    for (std::size_t i = 0; i + config_.chunkChars <= norm.size(); ++i) {
      if (chunkHashes_.count(util::fnv1a64(std::string_view(norm.text)
                                               .substr(i, config_.chunkChars)))
          != 0) {
        return true;
      }
    }
    return false;
  }
  text::Fingerprint bodyFp;
  {
    obs::StageTimer fpTimer(obs::Stage::kFingerprint);
    bodyFp = text::fingerprintText(text.raw(), fingerprintConfig_);
  }
  for (const auto& docFp : fingerprints_) {
    if (docFp.empty()) continue;
    const double containment =
        static_cast<double>(text::Fingerprint::intersectionSize(docFp, bodyFp)) /
        static_cast<double>(docFp.size());
    if (containment >= config_.threshold) return true;
  }
  return false;
}

browser::HttpResponse DlpAppliance::handle(const browser::HttpRequest& req) {
  inspectedCounter().inc();
  if (!config_.trafficEncrypted) {
    // An appliance inspection is an ingress of its own: the request came
    // off the wire, not from a plug-in decision path.
    const obs::TraceContext trace = obs::ingressTrace();
    obs::ScopedTraceContext traceScope(trace);
    obs::StageBreakdown stages;
    obs::ScopedStageCollector stageScope(&stages);
    util::Stopwatch watch;
    // The appliance sees wire bytes; decode the urlencoded form body the
    // way commercial DLP reverse-engineers wire formats (paper S2.2).
    std::string decoded;
    for (const auto& [key, value] : browser::parseFormBody(req.body)) {
      decoded += value;
      decoded += '\n';
    }
    const bool hit = inspectText(decoded) || inspectText(req.body);
    if (hit) flaggedCounter().inc();
    // bf_cloud does not link the engine, so the appliance reports to the
    // flight recorder directly. Unretained inspections still consume an id
    // so decision ids stay globally ordered.
    if (obs::provenanceEnabled()) {
      obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
      if (!trace.sampled && !hit) {
        (void)recorder.nextDecisionId();
      } else {
        obs::DecisionTrace record;
        record.traceId = trace.traceId;
        record.sampled = trace.sampled;
        record.ingress = "dlp.appliance";
        record.segmentName = req.url;
        record.documentName = req.url;
        record.serviceId = req.url;
        record.action = hit ? "flag" : "allow";
        record.violation = hit;
        record.bytesScanned = req.body.size();
        record.stages = stages;
        record.totalMs = watch.elapsedMillis();
        (void)recorder.record(std::move(record));
      }
    }
  }
  return upstream_->handle(req);
}

}  // namespace bf::cloud
