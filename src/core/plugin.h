// BrowserFlowPlugin — the browser-based middleware (paper Fig. 1, S5).
//
// Installed into the simulated browser as an Extension, it wires the four
// interception mechanisms of S5 into every tab:
//   1. Readability-style text extraction for static pages (scanPage);
//   2. submit listeners on every <form> ("form-based interception");
//   3. a MutationObserver over the document for dynamic editors
//      (Google-Docs-style paragraph divs);
//   4. a patched XMLHttpRequest prototype `send` for AJAX uploads.
//
// The plug-in makes no verdict itself: every interception is one
// DecisionEngine request — observe for DOM mutations and form drafts,
// probe for XHR uploads — and the plug-in enforces the Decision::action it
// gets back. Violations are surfaced the way the paper's plug-in does — by
// colouring the paragraph background (a data-bf-state attribute plus
// inline style) — and enforced per that action (warn / block / encrypt).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "core/decision_engine.h"
#include "core/service_adapter.h"
#include "crypto/sealer.h"
#include "sec/sensitive.h"
#include "flow/tracker.h"
#include "tdm/policy.h"
#include "util/clock.h"

namespace bf::core {

class BrowserFlowPlugin final : public browser::Extension {
 public:
  /// `clock` orders hash observations and audit records; not owned.
  BrowserFlowPlugin(BrowserFlowConfig config, util::Clock* clock);
  ~BrowserFlowPlugin() override;

  // ---- Extension hooks -------------------------------------------------------
  void onPageCreated(browser::Page& page) override;
  void onPageClosing(browser::Page& page) override;

  // ---- Administration / user facade ------------------------------------------
  [[nodiscard]] tdm::TdmPolicy& policy() noexcept { return policy_; }
  [[nodiscard]] flow::FlowTracker& tracker() noexcept { return tracker_; }
  [[nodiscard]] DecisionEngine& engine() noexcept { return engine_; }
  [[nodiscard]] crypto::Sealer& sealer() noexcept { return sealer_; }
  /// Exact-match guard for short secrets (paper S4.4). Register secrets
  /// with guard().addSecret(name, value, tag); uploads containing one get
  /// the tag attached and the usual flow rule applies.
  [[nodiscard]] SecretGuard& secretGuard() noexcept { return secretGuard_; }
  [[nodiscard]] const BrowserFlowConfig& config() const noexcept {
    return config_;
  }

  /// Extracts the main text of a loaded (static) page and registers it as
  /// content of that page's service — how existing documents seed the
  /// fingerprint database.
  void scanPage(browser::Page& page);

  /// Registers raw text as content of a service without a page (e.g. bulk
  /// preloading corpora in benches). `docName` must be unique. Optional
  /// per-segment disclosure thresholds override the tracker defaults
  /// (T_par / T_doc, paper S4.2 — set "by the author of a document and
  /// paragraph").
  void observeServiceDocument(
      const std::string& serviceId, const std::string& docName,
      sec::SensitiveView text,
      std::optional<double> paragraphThreshold = std::nullopt,
      std::optional<double> documentThreshold = std::nullopt);

  /// Installs a service-specific upload adapter for all tabs of `origin`
  /// (paper S4.4). Without one, the plug-in sniffs the body: JSON bodies
  /// use the generic JSON adapter, everything else the form adapter.
  void registerServiceAdapter(const std::string& origin,
                              std::unique_ptr<ServiceAdapter> adapter);

  /// User declassification (delegates to the TDM policy; audited).
  util::Status suppressTag(const std::string& user,
                           const std::string& segmentName,
                           const tdm::Tag& tag,
                           const std::string& justification);

  // ---- Introspection -----------------------------------------------------------
  struct Warning {
    std::string segmentName;
    std::string serviceId;
    Decision decision;
  };
  [[nodiscard]] const std::vector<Warning>& warnings() const noexcept {
    return warnings_;
  }
  void clearWarnings() { warnings_.clear(); }

  /// Attribute set on paragraph elements: "violation" or "clean".
  static constexpr const char* kStateAttr = "data-bf-state";
  static constexpr const char* kViolation = "violation";
  static constexpr const char* kClean = "clean";

  /// The segment name the plug-in assigned to a tracked paragraph node
  /// (empty if untracked).
  [[nodiscard]] std::string segmentNameOf(browser::Node* paragraph) const;

 private:
  struct PageHooks {
    browser::Page* page = nullptr;
    std::unique_ptr<browser::MutationObserver> observer;
    /// Stable name per paragraph DOM node (stable across sibling shifts).
    std::map<browser::Node*, std::string> paragraphNames;
    std::set<browser::Node*> hookedForms;
    std::uint64_t nextNodeId = 0;
  };

  void handleMutations(PageHooks& hooks,
                       const std::vector<browser::MutationRecord>& records);
  void hookNewForms(PageHooks& hooks);
  void installXhrInterceptor(browser::Page& page);
  void installFormListener(PageHooks& hooks, browser::Node* form);

  /// Decides for one paragraph node and applies the highlight.
  void checkParagraphNode(PageHooks& hooks, browser::Node* paragraph);

  /// Is `node` (or an ancestor) a tracked paragraph container? Returns the
  /// container or nullptr.
  [[nodiscard]] static browser::Node* paragraphContainerOf(
      browser::Node* node);

  /// `content` is the violating text; only its redact() preview reaches
  /// the audit trail (justification field) — never the raw characters.
  void recordViolation(const std::string& segmentName,
                       const std::string& serviceId, const Decision& d,
                       sec::SensitiveView content);

  /// Appends to the policy's audit log under the engine's state lock.
  void appendAudit(tdm::AuditRecord record);

  /// Adapter used for a request to `origin`: the registered one, else a
  /// generic adapter chosen by body shape.
  [[nodiscard]] const ServiceAdapter& adapterFor(
      const std::string& origin, const browser::HttpRequest& request) const;

  BrowserFlowConfig config_;
  util::Clock* clock_;
  flow::FlowTracker tracker_;
  tdm::TdmPolicy policy_;
  DecisionEngine engine_;
  crypto::Sealer sealer_;
  SecretGuard secretGuard_;
  std::vector<std::unique_ptr<PageHooks>> hooks_;
  std::vector<Warning> warnings_;
  std::map<std::string, std::unique_ptr<ServiceAdapter>> adapters_;
  FormEncodedAdapter formAdapter_;
  JsonFieldAdapter jsonAdapter_;
};

}  // namespace bf::core
