// Explain a decision end to end: drive the engine through an allowed edit
// and a blocked paste, then dump the flight recorder as bf-flight-v1 JSON
// for scripts/bf_explain.py.
//
// Run: ./build/examples/explain_decision | scripts/bf_explain.py -
//
// Diagnostic prose goes to stderr so stdout stays pipeable JSON. The
// README's "Explaining a decision" section walks through the output.

#include <cstdio>
#include <string>

#include "core/decision_engine.h"
#include "flow/tracker.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "tdm/policy.h"
#include "util/clock.h"

int main() {
  using namespace bf;

  // Sample every trace so this demo retains both decisions; the production
  // default keeps 1-in-16 plus everything blocked or durability-degraded.
  obs::setTraceSampleEvery(1);
  obs::FlightRecorder::instance().clear();

  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  tdm::TdmPolicy policy(&clock);
  policy.services().upsert({"itool", "Interview Tool", tdm::TagSet{"ti"},
                            tdm::TagSet{"ti"}});
  policy.services().upsert({"gdocs", "Google Docs", tdm::TagSet{},
                            tdm::TagSet{}});

  core::BrowserFlowConfig config;
  config.mode = core::EnforcementMode::kBlock;
  core::DecisionEngine engine(config, &tracker, &policy);

  const std::string evaluation =
      "The candidate showed outstanding systems design depth, walking "
      "through a replicated log design with clear failure-mode reasoning, "
      "and gave the strongest whiteboard performance of this cycle.";
  tracker.observeSegment(flow::SegmentKind::kParagraph, "itool/eval-42#p0",
                         "itool/eval-42", "itool", evaluation);
  policy.onSegmentObserved("itool/eval-42#p0", "itool");

  // Decision 1 — allowed: an unrelated note.
  core::DecisionRequest allowedReq;
  allowedReq.segmentName = "gdocs/doc1#p0";
  allowedReq.documentName = "gdocs/doc1";
  allowedReq.serviceId = "gdocs";
  allowedReq.text =
      "Lunch options near the Trento conference venue include three "
      "trattorias, two pizzerias, and an excellent gelato place.";
  const core::Decision allowed = engine.decide(allowedReq);

  // Decision 2 — blocked: a lightly edited paste of the evaluation.
  core::DecisionRequest blockedReq;
  blockedReq.segmentName = "gdocs/doc1#p1";
  blockedReq.documentName = "gdocs/doc1";
  blockedReq.serviceId = "gdocs";
  blockedReq.text =
      "the candidate showed outstanding systems design depth, walking "
      "through a replicated log design with clear failure-mode reasoning.";
  const core::Decision blocked = engine.decide(blockedReq);

  std::fprintf(stderr,
               "allowed   decision #%llu  action=%d\n"
               "blocked   decision #%llu  violation=%s  why via explain():\n",
               static_cast<unsigned long long>(allowed.decisionId),
               static_cast<int>(allowed.action),
               static_cast<unsigned long long>(blocked.decisionId),
               blocked.violation() ? "YES" : "no");
  const auto record =
      obs::FlightRecorder::instance().explain(blocked.decisionId);
  if (record.has_value()) {
    for (const auto& hit : record->hits) {
      std::fprintf(stderr, "  source=%s score=%.3f threshold=%.3f\n",
                   hit.sourceName.c_str(), hit.score, hit.threshold);
    }
  }

  // The artifact bf_explain.py consumes: every retained decision as JSON.
  std::printf("%s\n",
              obs::toJson(obs::FlightRecorder::instance()).c_str());

  return (blocked.violation() && record.has_value() && !record->hits.empty())
             ? 0
             : 1;
}
