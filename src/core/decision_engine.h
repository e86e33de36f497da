// DecisionEngine — BrowserFlow's two in-plugin modules (paper Fig. 1):
//
//  - the POLICY LOOKUP module "extracts the security label associated with
//    the text segment being uploaded": it finds the sources the text
//    discloses by similarity and folds their explicit tags into the label
//    as implicit tags;
//  - the POLICY ENFORCEMENT module "uses the security label to reason about
//    the compliance of the data propagation": the Li ⊆ Lp check plus the
//    configured action (warn / block / encrypt).
//
// Every verdict of the plug-in is made here, whatever the ingress (DOM
// mutation, form submit, XHR send): each text unit runs the same lookup,
// mode → action mapping, latency and action counters, durability flag and
// flight-recorder record; no verdict is given without the lookup. A
// request either OBSERVES text (registers it as a segment and refreshes
// its label) or PROBES it (decides without changing the tracker or the
// policy).
//
// Every decision runs on the calling thread; its response time is
// recorded, which is what Figs. 12/13 measure. Several threads may decide
// at once: stateMutex_ (kRankEngineState, outermost in util/mutex.h)
// serialises them over config_, the text memo and tracker/policy access,
// and is held above the tracker / obs mutexes, never below them.
#pragma once

#include <array>
#include <mutex>  // std::unique_lock over util::Mutex (lockState)
#include <string>
#include <vector>

#include "core/config.h"
#include "core/secret_guard.h"
#include "flow/tracker.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "sec/sensitive.h"
#include "tdm/policy.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bf::flow {
class DurabilityManager;
}  // namespace bf::flow

namespace bf::core {

/// Audit reason recorded when the durability manager's health flips to
/// degraded (and its counterpart when repair restores it). Decisions made
/// while degraded carry Decision::durabilityDegraded so the flight
/// recorder can explain every durability-degraded window.
inline constexpr const char kDurabilityDegraded[] = "durability-degraded";
inline constexpr const char kDurabilityRestored[] = "durability-restored";

/// What a request asks of the engine.
enum class RequestKind : std::uint8_t {
  /// The text now exists in segment `segmentName`: register it, refresh
  /// its implicit tags, check the flow rule (DOM mutations, form drafts).
  kObserve,
  /// May this text leave for `serviceId`? Changes neither tracker nor
  /// policy. A registered segment of `documentName` with the same
  /// fingerprint decides with its own label (suppressions included), and
  /// its hits come from that segment's decision-cache entry when no other
  /// document changed since the observe filled it
  /// (FlowTracker::sourcesForProbe) — the same hits a fresh query gives,
  /// since both exclude the document. Otherwise the label comes from the
  /// disclosing sources' propagatable tags, the destination's Lc and
  /// secret hits. Empty text checks the registered segment `segmentName`
  /// by name (XHR uploads, offline tools).
  kProbe,
};

/// One unit of work: "this text now exists in segment X of service Y; may
/// it be uploaded there?" (observe), or "may it go to Y?" (probe).
struct DecisionRequest {
  /// Stable segment name, e.g. "https://docs.google.com/d/1#n4".
  std::string segmentName;
  /// Containing document identity (usually the tab URL).
  std::string documentName;
  /// Destination service id (the tab's origin).
  std::string serviceId;
  /// The raw content being uploaded. Sensitive by type: the engine may
  /// fingerprint, hash or redact it, but cannot log/audit/export it whole.
  sec::SensitiveText text;
  flow::SegmentKind kind = flow::SegmentKind::kParagraph;
  /// Ingress label recorded in the flight recorder ("plugin.paragraph",
  /// "dlp.appliance", ...). Must be a string literal.
  const char* ingress = "engine.decide";
  RequestKind requestKind = RequestKind::kObserve;
};

struct Decision {
  /// Ordered from least to most restrictive: enforcing several decisions
  /// at once means enforcing their std::max.
  enum class Action { kAllow, kWarn, kEncrypt, kBlock };
  Action action = Action::kAllow;
  [[nodiscard]] bool violation() const noexcept {
    return action != Action::kAllow;
  }
  /// Disclosing sources found by the lookup module.
  std::vector<flow::DisclosureHit> hits;
  /// Tags that made the Li ⊆ Lp check fail.
  std::vector<tdm::Tag> violatingTags;
  /// Names of registered short secrets found verbatim in the text
  /// (paper S4.4's data-equality case).
  std::vector<std::string> secretHits;
  /// Wall-clock time from request to decision, including any durability
  /// maintenance (checkpoint roll or repair) the decision ran.
  double responseTimeMs = 0.0;
  /// True when the decision was made while the attached durability manager
  /// was unhealthy (WAL poisoned or last checkpoint failed). The pipeline
  /// still ran fully and the verdict is the one a healthy engine gives,
  /// but a crash before repair completes could lose the mutations this
  /// decision observed, so the flight recorder retains these decisions
  /// (reason kDurabilityDegraded).
  bool durabilityDegraded = false;
  /// Provenance correlation ids (obs/flight_recorder.h): decisionId keys
  /// FlightRecorder::explain(); traceId links the flight-recorder records of
  /// one causal flow. Both 0 when provenance is disabled.
  std::uint64_t decisionId = 0;
  std::uint64_t traceId = 0;
  /// Policy labels the enforcement check consulted (the segment's
  /// effective tags and the destination's privilege), captured only for
  /// decisions the flight recorder retains.
  std::vector<std::string> labelsConsulted;
};

class DecisionEngine {
 public:
  /// `tracker` and `policy` are shared with the plug-in; not owned.
  DecisionEngine(const BrowserFlowConfig& config, flow::FlowTracker* tracker,
                 tdm::TdmPolicy* policy);

  DecisionEngine(const DecisionEngine&) = delete;
  DecisionEngine& operator=(const DecisionEngine&) = delete;

  /// Decides one unit of `request.kind` granularity inline.
  Decision decide(const DecisionRequest& request) BF_EXCLUDES(stateMutex_);

  /// Decides a text inline under one stateMutex_ acquisition: each
  /// paragraph is a unit "<segmentName>#p<i>" and, when there are several,
  /// the whole text is a document unit `segmentName` (paper S4.1's two
  /// granularities; `request.kind` is ignored). Observe also removes
  /// "#p<i>" segments left by an earlier, longer text. Each unit is a full
  /// decision with its own flight-recorder record; the result has the
  /// most restrictive action (and that unit's provenance ids), every hit
  /// and secret hit, the violating tags once each, and is
  /// durabilityDegraded if any unit was.
  Decision decideText(const DecisionRequest& request) BF_EXCLUDES(stateMutex_);

  /// Installs the exact-match guard for short secrets (not owned; may be
  /// null). A secret hit attaches the secret's tag to the segment as an
  /// implicit tag, so the normal Li ⊆ Lp check — and per-copy suppression
  /// — applies.
  void setSecretGuard(SecretGuard* guard) noexcept { guard_ = guard; }

  /// Serialises direct tracker/policy access with decisions on other
  /// threads. Any caller that touches the shared stores WITHOUT going
  /// through decide()/decideText() must hold this while doing so
  /// (administration: removals, bulk observation, suppression).
  /// Never hold it across a decide call — that deadlocks.
  /// Thread-safety analysis cannot track a capability through the returned
  /// handle, so the acquisition is deliberately unchecked here; the
  /// runtime lock-rank assertion still applies.
  [[nodiscard]] std::unique_lock<util::Mutex> lockState() const
      BF_NO_THREAD_SAFETY_ANALYSIS {
    return std::unique_lock<util::Mutex>(stateMutex_);
  }

  /// Attaches the durability manager (flow/wal.h; not owned, may be null).
  /// The engine then drives durability maintenance from the decision path:
  /// after each decision — while still holding stateMutex_, which quiesces
  /// pipeline mutations — it calls DurabilityManager::maintain(), which
  /// rolls due checkpoints when healthy and paces repair attempts when
  /// degraded. Durability failures NEVER block decisions (availability
  /// over durability): the WAL/checkpoint metrics record them,
  /// DurabilityManager::healthy() turns false, decisions carry
  /// Decision::durabilityDegraded, and each health flip writes one
  /// kDecisionDegraded audit record (kDurabilityDegraded /
  /// kDurabilityRestored) — but the pipeline keeps answering.
  /// Pass nullptr to detach.
  void setDurability(flow::DurabilityManager* durability)
      BF_EXCLUDES(stateMutex_);

 private:
  /// One text unit of a request: the request's own text, or a paragraph
  /// or the whole of a decideText() text.
  struct Unit {
    std::string segmentName;
    sec::SensitiveView text;
    flow::SegmentKind kind;
  };

  /// Lookup, enforcement, counters and durability for one unit.
  Decision decideLocked(const DecisionRequest& request, const Unit& unit)
      BF_REQUIRES(stateMutex_);
  /// The lookup halves: fill `decision`'s hits and secret hits and return
  /// the flow check of the unit's label.
  tdm::UploadDecision observeLocked(const DecisionRequest& request,
                                    const Unit& unit, Decision& decision)
      BF_REQUIRES(stateMutex_);
  tdm::UploadDecision probeLocked(const DecisionRequest& request,
                                  const Unit& unit, Decision& decision)
      BF_REQUIRES(stateMutex_);
  /// The unit text's fingerprint and secret hits, computed at most once
  /// per text while it stays in memo_: served from the slot whose text is
  /// byte-equal (and, for secret hits, whose guard and generation are
  /// unchanged; no guard means no hits). Work the memo lacks is spliced
  /// from the slot's splice base (FlowTracker::fingerprintOf's splice
  /// overload, SecretGuard::rescan), which costs what the edit costs. The
  /// references stay valid until a call with a text that is not in the
  /// memo.
  const text::Fingerprint& fingerprintLocked(sec::SensitiveView text)
      BF_REQUIRES(stateMutex_);
  const std::vector<SecretGuard::Hit>& secretHitsLocked(sec::SensitiveView text)
      BF_REQUIRES(stateMutex_);

  BrowserFlowConfig config_ BF_GUARDED_BY(stateMutex_);
  flow::FlowTracker* tracker_;
  tdm::TdmPolicy* policy_;
  SecretGuard* guard_ = nullptr;
  flow::DurabilityManager* durability_ BF_GUARDED_BY(stateMutex_) = nullptr;
  /// Last durability health observed on the decision path; a flip in
  /// either direction writes one audit record (not one per decision).
  bool lastDurabilityHealthy_ BF_GUARDED_BY(stateMutex_) = true;

  /// One text and the work already done on it. A keystroke decides three
  /// texts in turn: the paragraph observe, the document observe, then the
  /// upload probe of the paragraph again. kMemoSlots slots hold all three
  /// and one more, so the probe hits even on a multi-paragraph page (where
  /// the document text differs from the paragraph's), and the next
  /// keystroke's paragraph and document each find their previous version
  /// to splice from. A byte-for-byte compare, not a hash, decides a hit;
  /// the least recently used slot makes room. When a text enters, the
  /// slot sharing the most bytes with it at its ends becomes its splice
  /// base, for the fingerprint and the secret scan alike; a base whose
  /// slot has taken another text since, or whose matches were scanned
  /// under another guard or generation, is not spliced from.
  struct TextMemo {
    sec::SensitiveText text;
    /// memoUses_ when the text entered the slot, and at its last use.
    std::uint64_t entered = 0;
    std::uint64_t lastUse = 0;
    /// The splice base, valid while base->entered == baseEntered, and
    /// the bytes it shares with this text at their ends (both splices
    /// take them rather than comparing the texts again).
    const TextMemo* base = nullptr;
    std::uint64_t baseEntered = 0;
    text::SharedEdges baseEdges;
    bool hasFingerprint = false;
    text::Fingerprint fingerprint;
    bool hasSecretScan = false;
    /// The guard and generation the secret matches were scanned with.
    const SecretGuard* guard = nullptr;
    std::uint64_t guardGeneration = 0;
    std::vector<SecretGuard::Match> secretMatches;
    std::vector<SecretGuard::Hit> secretHits;
  };
  static constexpr std::size_t kMemoSlots = 4;
  /// The slot holding `text`: a hit, or the least recently used slot
  /// emptied and pointed at `text`, with its splice base chosen.
  TextMemo& memoizeLocked(sec::SensitiveView text) BF_REQUIRES(stateMutex_);
  /// `slot`'s splice base, or null when it has none or the base's slot
  /// holds another text now.
  static const TextMemo* spliceBase(const TextMemo& slot) noexcept;
  std::array<TextMemo, kMemoSlots> memo_ BF_GUARDED_BY(stateMutex_);
  std::uint64_t memoUses_ BF_GUARDED_BY(stateMutex_) = 0;

  // One mutex serialises tracker/policy access between caller threads; the
  // paper's engine likewise processes decisions one at a time in the
  // extension's background page. Outermost rank: everything the pipeline
  // touches (tracker, WAL, metrics, flight recorder) nests inside.
  mutable util::Mutex stateMutex_{util::kRankEngineState,
                                  "DecisionEngine.stateMutex_"};

  // Registry-backed instrumentation (resolved once in the constructor).
  obs::Histogram* latency_;        // bf_decision_latency_ms
  obs::Counter* actionCounters_[4];  // bf_decision_actions_total by kind
};

}  // namespace bf::core
