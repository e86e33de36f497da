#include "core/decision_engine.h"

#include <algorithm>

#include "flow/wal.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "text/fingerprint_kernel.h"
#include "text/segmenter.h"
#include "util/clock.h"
#include "util/stopwatch.h"

namespace bf::core {

namespace {

const char* actionName(Decision::Action action) {
  switch (action) {
    case Decision::Action::kAllow:
      return "allow";
    case Decision::Action::kWarn:
      return "warn";
    case Decision::Action::kBlock:
      return "block";
    case Decision::Action::kEncrypt:
      return "encrypt";
  }
  return "unknown";
}

/// The action a violation gets under `mode`: the one place the enforcement
/// mode becomes a verdict.
Decision::Action violationAction(EnforcementMode mode) {
  switch (mode) {
    case EnforcementMode::kWarn:
      return Decision::Action::kWarn;
    case EnforcementMode::kBlock:
      return Decision::Action::kBlock;
    case EnforcementMode::kEncrypt:
      return Decision::Action::kEncrypt;
  }
  return Decision::Action::kWarn;
}

/// Stamps `decision` with provenance ids and reports a DecisionTrace to the
/// process-wide FlightRecorder (which retains it per its sampling policy;
/// unretained decisions only consume an id). Called after every decision
/// WITHOUT stateMutex_ held — the recorder's mutex ranks above the
/// pipeline locks, and record construction has no business inside the
/// serialised section. `content` is the checked text; only its redact()
/// preview is retained in the trace (declassification gate, DESIGN.md §14).
void recordDecisionProvenance(const char* ingress,
                              std::string_view segmentName,
                              std::string_view documentName,
                              std::string_view serviceId,
                              sec::SensitiveView content,
                              const obs::TraceContext& trace,
                              const obs::StageBreakdown& stages,
                              Decision& decision) {
  if (!obs::provenanceEnabled()) return;
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  decision.traceId = trace.traceId;
  if (!trace.sampled && !decision.durabilityDegraded && !decision.violation()) {
    // Fast path: the recorder would not retain this decision, so skip the
    // record construction (strings/vectors) entirely.
    decision.decisionId = recorder.nextDecisionId();
    return;
  }
  obs::DecisionTrace record;
  record.traceId = trace.traceId;
  record.sampled = trace.sampled;
  record.ingress = ingress;
  record.segmentName = segmentName;
  record.documentName = documentName;
  record.serviceId = serviceId;
  record.action = actionName(decision.action);
  record.violation = decision.violation();
  record.durabilityDegraded = decision.durabilityDegraded;
  record.bytesScanned = content.size();
  record.contentPreview = sec::redact(content).text;
  record.stages = stages;
  record.totalMs = decision.responseTimeMs;
  record.hits.reserve(decision.hits.size());
  for (const auto& hit : decision.hits) {
    record.hits.push_back(obs::DecisionTraceHit{
        hit.sourceName, hit.score, hit.threshold, hit.overlap});
  }
  record.violatingTags.assign(decision.violatingTags.begin(),
                              decision.violatingTags.end());
  record.labelsConsulted = decision.labelsConsulted;
  record.secretHits = decision.secretHits;
  decision.decisionId = recorder.record(std::move(record));
}

/// Folds one unit of a decideText() call into the merged decision. The
/// first unit, and any later one with a more restrictive action, sets the
/// action and the provenance ids.
void mergeUnit(Decision& total, Decision&& unit, bool first) {
  if (first || unit.action > total.action) {
    total.action = unit.action;
    total.decisionId = unit.decisionId;
    total.traceId = unit.traceId;
  }
  for (auto& hit : unit.hits) total.hits.push_back(std::move(hit));
  for (auto& name : unit.secretHits) total.secretHits.push_back(std::move(name));
  for (auto& tag : unit.violatingTags) {
    if (std::find(total.violatingTags.begin(), total.violatingTags.end(),
                  tag) == total.violatingTags.end()) {
      total.violatingTags.push_back(std::move(tag));
    }
  }
  total.responseTimeMs += unit.responseTimeMs;
  total.durabilityDegraded = total.durabilityDegraded || unit.durabilityDegraded;
}

}  // namespace

DecisionEngine::DecisionEngine(const BrowserFlowConfig& config,
                               flow::FlowTracker* tracker,
                               tdm::TdmPolicy* policy)
    : config_(config),
      tracker_(tracker),
      policy_(policy) {
  obs::MetricsRegistry& r = obs::registry();
  latency_ = &r.histogram("bf_decision_latency_ms",
                          "Wall-clock time per disclosure decision");
  actionCounters_[static_cast<int>(Decision::Action::kAllow)] =
      &r.counter("bf_decision_allow_total", "Decisions that allowed upload");
  actionCounters_[static_cast<int>(Decision::Action::kWarn)] =
      &r.counter("bf_decision_warn_total", "Decisions that warned");
  actionCounters_[static_cast<int>(Decision::Action::kBlock)] =
      &r.counter("bf_decision_block_total", "Decisions that blocked upload");
  actionCounters_[static_cast<int>(Decision::Action::kEncrypt)] = &r.counter(
      "bf_decision_encrypt_total", "Decisions that encrypted before upload");
  // Calibrate the stage-timer tick clock now, not under a pipeline lock on
  // the first decision.
  util::warmFastTicks();
}

Decision DecisionEngine::decide(const DecisionRequest& request) {
  const obs::TraceContext trace = obs::ingressTrace();
  obs::ScopedTraceContext traceScope(trace);
  obs::StageBreakdown stages;
  obs::ScopedStageCollector collector(&stages);
  Decision decision;
  {
    util::MutexLock lock(stateMutex_);
    decision = decideLocked(
        request, Unit{request.segmentName, request.text, request.kind});
  }
  recordDecisionProvenance(request.ingress, request.segmentName,
                           request.documentName, request.serviceId,
                           request.text, trace, stages, decision);
  return decision;
}

Decision DecisionEngine::decideText(const DecisionRequest& request) {
  const obs::TraceContext trace = obs::ingressTrace();
  obs::ScopedTraceContext traceScope(trace);
  const std::vector<text::ParagraphSpan> paragraphs =
      text::segmentParagraphs(request.text.raw());
  std::vector<Unit> units;
  units.reserve(paragraphs.size() + 1);
  for (const auto& para : paragraphs) {
    units.push_back(Unit{request.segmentName + "#p" + std::to_string(para.index),
                         para.text, flow::SegmentKind::kParagraph});
  }
  if (paragraphs.size() > 1) {
    units.push_back(
        Unit{request.segmentName, request.text, flow::SegmentKind::kDocument});
  }

  std::vector<Decision> decisions(units.size());
  std::vector<obs::StageBreakdown> stages(units.size());
  {
    util::MutexLock lock(stateMutex_);
    for (std::size_t i = 0; i < units.size(); ++i) {
      obs::ScopedStageCollector collector(&stages[i]);
      decisions[i] = decideLocked(request, units[i]);
    }
    if (request.requestKind == RequestKind::kObserve) {
      // Drop paragraphs left over from an earlier, longer text.
      for (std::size_t i = paragraphs.size();; ++i) {
        const std::string name = request.segmentName + "#p" + std::to_string(i);
        if (tracker_->segmentByName(name) == nullptr) break;
        tracker_->removeSegmentByName(name);
        policy_->forgetSegment(name);
      }
    }
  }
  Decision total;
  for (std::size_t i = 0; i < units.size(); ++i) {
    recordDecisionProvenance(request.ingress, units[i].segmentName,
                             request.documentName, request.serviceId,
                             units[i].text, trace, stages[i], decisions[i]);
    mergeUnit(total, std::move(decisions[i]), i == 0);
  }
  return total;
}

Decision DecisionEngine::decideLocked(const DecisionRequest& request,
                                      const Unit& unit) {
  util::Stopwatch watch;
  Decision decision;
  // ---- Policy lookup module -------------------------------------------------
  const tdm::UploadDecision check =
      request.requestKind == RequestKind::kObserve
          ? observeLocked(request, unit, decision)
          : probeLocked(request, unit, decision);

  // ---- Policy enforcement module ---------------------------------------------
  if (!check.allowed) {
    decision.violatingTags = check.violatingTags;
    decision.action = violationAction(config_.mode);
  }
  // Capture the labels the check consulted, but only when the flight
  // recorder will retain this decision — the TagSet copies are wasted work
  // otherwise.
  if (obs::provenanceEnabled() &&
      (obs::currentTrace().sampled || decision.violation())) {
    for (const auto& tag : check.label.effectiveTags()) {
      decision.labelsConsulted.push_back("segment:" + tag);
    }
    if (const tdm::ServiceInfo* svc =
            policy_->services().find(request.serviceId)) {
      for (const auto& tag : svc->privilege) {
        decision.labelsConsulted.push_back("privilege:" + tag);
      }
    }
  }

  actionCounters_[static_cast<int>(decision.action)]->inc();

  // Durability maintenance, driven from the decision path while stateMutex_
  // is still held (pipeline mutations quiesced — the contract
  // DurabilityManager::checkpoint requires). maintain() rolls due
  // checkpoints when healthy and paces backed-off repair attempts when
  // degraded; either way the decision is already made and is returned
  // regardless. Each boolean health flip writes exactly one audit record,
  // and every decision made inside a degraded window is flagged so the
  // flight recorder retains it.
  if (durability_ != nullptr) {
    (void)durability_->maintain(*tracker_);
    const bool durable = durability_->healthy();
    decision.durabilityDegraded = !durable;
    if (durable != lastDurabilityHealthy_) {
      lastDurabilityHealthy_ = durable;
      policy_->recordDegradedDecision(
          unit.segmentName, request.serviceId,
          durable ? kDurabilityRestored : kDurabilityDegraded);
    }
  }
  // Taken after maintenance: a checkpoint this decision rolled held every
  // caller for its duration, so it is part of the response time.
  decision.responseTimeMs = watch.elapsedMillis();
  latency_->observe(decision.responseTimeMs);
  return decision;
}

tdm::UploadDecision DecisionEngine::observeLocked(const DecisionRequest& request,
                                                  const Unit& unit,
                                                  Decision& decision) {
  // 1. The text now exists in this segment of this service: observe it.
  //    First observation assigns the service's Lc as explicit tags.
  const flow::SegmentId id = tracker_->observeFingerprint(
      unit.kind, unit.segmentName, request.documentName, request.serviceId,
      fingerprintLocked(unit.text));
  {
    obs::StageTimer policyTimer(obs::Stage::kPolicyEval);
    policy_->onSegmentObserved(unit.segmentName, request.serviceId);
  }

  // 2. Find the sources this text discloses (cached when the fingerprint
  //    is unchanged — the per-keystroke fast path).
  decision.hits = tracker_->sourcesForSegment(id);
  const std::vector<SecretGuard::Hit>& secrets = secretHitsLocked(unit.text);

  // 3. The segment's implicit tags become exactly the explicit tags of its
  //    CURRENT disclosing sources (paper S3.2): new disclosure attaches
  //    taint, and edits that removed all resemblance shed it.
  obs::StageTimer policyTimer(obs::Stage::kPolicyEval);
  std::vector<std::string> sourceNames;
  sourceNames.reserve(decision.hits.size());
  for (const auto& hit : decision.hits) sourceNames.push_back(hit.sourceName);
  policy_->refreshImplicitTags(unit.segmentName, sourceNames);

  // 3b. Exact-match pass for short secrets (S4.4): each hit attaches the
  //     secret's tag as an implicit tag, sharing the refresh lifecycle —
  //     deleting the secret from the text sheds the tag on the next edit.
  for (const auto& hit : secrets) {
    policy_->addImplicitTag(unit.segmentName, hit.tag);
    decision.secretHits.push_back(hit.name);
  }
  return policy_->checkUpload(unit.segmentName, request.serviceId);
}

tdm::UploadDecision DecisionEngine::probeLocked(const DecisionRequest& request,
                                                const Unit& unit,
                                                Decision& decision) {
  if (unit.text.empty()) {
    // By name: a registered segment (e.g. a page's document segment, kept
    // fresh by the mutation path) decides with its own label.
    obs::StageTimer policyTimer(obs::Stage::kPolicyEval);
    return policy_->checkUpload(unit.segmentName, request.serviceId);
  }
  const text::Fingerprint& fp = fingerprintLocked(unit.text);
  std::optional<flow::SegmentRecord> seg;
  {
    obs::StageTimer findTimer(obs::Stage::kTrackerLookup);
    seg = tracker_->findSegmentWithFingerprint(request.documentName, fp,
                                               unit.kind);
  }
  if (seg) {
    // The outgoing text is a tracked segment of this document: the answer
    // the observe cached for it, and its registered label (implicit tags,
    // user suppressions), decide.
    decision.hits = tracker_->sourcesForProbe(seg->id);
    obs::StageTimer policyTimer(obs::Stage::kPolicyEval);
    return policy_->checkUpload(seg->name, request.serviceId);
  }
  decision.hits = tracker_->disclosedSources(fp, unit.kind, flow::kInvalidSegment,
                                             request.documentName);
  const std::vector<SecretGuard::Hit>& secrets = secretHitsLocked(unit.text);

  // Unregistered text: build the label the text would get — the disclosing
  // sources' explicit tags as implicit, plus the destination's Lc for text
  // being created there.
  obs::StageTimer policyTimer(obs::Stage::kPolicyEval);
  tdm::Label label;
  for (const auto& hit : decision.hits) {
    if (const tdm::Label* src = policy_->labelOf(hit.sourceName)) {
      label.addImplicitAll(src->propagatableTags());
    }
  }
  if (const tdm::ServiceInfo* svc = policy_->services().find(request.serviceId)) {
    for (const tdm::Tag& t : svc->confidentiality) label.addExplicit(t);
  }
  // Exact-match pass for short secrets (S4.4).
  for (const auto& hit : secrets) {
    label.addImplicit(hit.tag);
    decision.secretHits.push_back(hit.name);
  }
  return policy_->checkLabel(label, request.serviceId);
}

DecisionEngine::TextMemo& DecisionEngine::memoizeLocked(
    sec::SensitiveView text) {
  TextMemo* slot = &memo_[0];
  for (TextMemo& m : memo_) {
    if (m.text == text) {
      slot = &m;
      break;
    }
    if (m.lastUse < slot->lastUse) slot = &m;
  }
  if (slot->text != text) {
    // The splice base: the memoized text sharing the most bytes at its
    // ends with this one (a keystroke's previous version of the same unit).
    slot->base = nullptr;
    std::size_t baseShared = 0;
    for (const TextMemo& m : memo_) {
      if (&m == slot || (!m.hasFingerprint && !m.hasSecretScan)) continue;
      const text::SharedEdges e =
          text::sharedEdges(sec::SensitiveView(m.text).raw(), text.raw());
      if (e.prefix + e.suffix > baseShared) {
        slot->base = &m;
        slot->baseEntered = m.entered;
        slot->baseEdges = e;
        baseShared = e.prefix + e.suffix;
      }
    }
    slot->text.assign(text);
    slot->entered = memoUses_ + 1;
    slot->hasFingerprint = false;
    slot->hasSecretScan = false;
  }
  slot->lastUse = ++memoUses_;
  return *slot;
}

const DecisionEngine::TextMemo* DecisionEngine::spliceBase(
    const TextMemo& slot) noexcept {
  return slot.base != nullptr && slot.base->entered == slot.baseEntered
             ? slot.base
             : nullptr;
}

const text::Fingerprint& DecisionEngine::fingerprintLocked(
    sec::SensitiveView text) {
  TextMemo& slot = memoizeLocked(text);
  if (!slot.hasFingerprint) {
    obs::StageTimer fpTimer(obs::Stage::kFingerprint);
    const TextMemo* base = spliceBase(slot);
    slot.fingerprint =
        base != nullptr && base->hasFingerprint
            ? tracker_->fingerprintOf(text, base->text, base->fingerprint,
                                      slot.baseEdges)
            : tracker_->fingerprintOf(text);
    slot.hasFingerprint = true;
  }
  return slot.fingerprint;
}

const std::vector<SecretGuard::Hit>& DecisionEngine::secretHitsLocked(
    sec::SensitiveView text) {
  static const std::vector<SecretGuard::Hit> kNoGuard;
  if (guard_ == nullptr) return kNoGuard;
  const auto scannedHere = [this](const TextMemo& m) {
    return m.hasSecretScan && m.guard == guard_ &&
           m.guardGeneration == guard_->generation();
  };
  TextMemo& slot = memoizeLocked(text);
  if (!scannedHere(slot)) {
    obs::StageTimer scanTimer(obs::Stage::kSecretScan);
    const TextMemo* base = spliceBase(slot);
    slot.secretMatches =
        base != nullptr && scannedHere(*base)
            ? guard_->rescan(base->text, base->secretMatches, text,
                             slot.baseEdges)
            : guard_->matches(text);
    slot.secretHits = guard_->hitsOf(slot.secretMatches);
    slot.guard = guard_;
    slot.guardGeneration = guard_->generation();
    slot.hasSecretScan = true;
  }
  return slot.secretHits;
}

void DecisionEngine::setDurability(flow::DurabilityManager* durability) {
  util::MutexLock lock(stateMutex_);
  durability_ = durability;
}

}  // namespace bf::core
