#include "core/plugin.h"

#include <algorithm>

#include "browser/forms.h"
#include "browser/readability.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/json_text.h"
#include "util/strings.h"

namespace bf::core {

BrowserFlowPlugin::BrowserFlowPlugin(BrowserFlowConfig config,
                                     util::Clock* clock)
    : config_(std::move(config)),
      clock_(clock),
      tracker_(config_.tracker, clock_),
      policy_(clock_),
      engine_(config_, &tracker_, &policy_),
      sealer_(config_.orgSecret) {
  engine_.setSecretGuard(&secretGuard_);
}

BrowserFlowPlugin::~BrowserFlowPlugin() = default;

void BrowserFlowPlugin::onPageCreated(browser::Page& page) {
  static obs::Counter& pagesCounter = obs::registry().counter(
      "bf_plugin_pages_total", "Tabs instrumented by the plug-in");
  pagesCounter.inc();
  auto hooks = std::make_unique<PageHooks>();
  hooks->page = &page;
  PageHooks* raw = hooks.get();
  hooks->observer = std::make_unique<browser::MutationObserver>(
      [this, raw](const std::vector<browser::MutationRecord>& records) {
        handleMutations(*raw, records);
      });
  hooks->observer->observe(page.document().root());
  page.registerObserver(hooks->observer.get());
  installXhrInterceptor(page);
  hooks_.push_back(std::move(hooks));
}

void BrowserFlowPlugin::onPageClosing(browser::Page& page) {
  auto it = std::find_if(
      hooks_.begin(), hooks_.end(),
      [&](const std::unique_ptr<PageHooks>& h) { return h->page == &page; });
  if (it == hooks_.end()) return;
  page.unregisterObserver((*it)->observer.get());
  // Tracked segments persist — the document still exists in the cloud
  // service; only the tab closed.
  hooks_.erase(it);
}

browser::Node* BrowserFlowPlugin::paragraphContainerOf(browser::Node* node) {
  for (browser::Node* n = node; n != nullptr; n = n->parent()) {
    if (!n->isElement()) continue;
    if (n->tag() == "p") return n;
    if (util::containsIgnoreCase(n->className(), "docs-paragraph")) return n;
  }
  return nullptr;
}

void BrowserFlowPlugin::handleMutations(
    PageHooks& hooks, const std::vector<browser::MutationRecord>& records) {
  hookNewForms(hooks);

  std::vector<browser::Node*> dirty;
  bool removedTracked = false;
  auto markDirty = [&](browser::Node* p) {
    if (p != nullptr && std::find(dirty.begin(), dirty.end(), p) == dirty.end()) {
      dirty.push_back(p);
    }
  };

  for (const auto& rec : records) {
    if (rec.type == browser::MutationType::kCharacterData) {
      markDirty(paragraphContainerOf(rec.target));
      continue;
    }
    for (browser::Node* added : rec.addedNodes) {
      // The added subtree may itself contain paragraph containers.
      if (!added->isElement()) {
        markDirty(paragraphContainerOf(added));
        continue;
      }
      added->forEachNode([&](browser::Node& n) {
        if (n.isElement() && paragraphContainerOf(&n) == &n) markDirty(&n);
      });
    }
    for (browser::Node* removed : rec.removedNodes) {
      // NOTE: removed pointers are used only as map keys — the node may
      // already be destroyed by the time records are flushed.
      auto it = hooks.paragraphNames.find(removed);
      if (it != hooks.paragraphNames.end()) {
        const auto removalLock = engine_.lockState();
        tracker_.removeSegmentByName(it->second);
        policy_.forgetSegment(it->second);
        hooks.paragraphNames.erase(it);
        removedTracked = true;
      }
    }
  }

  // Removals also change the document's content, so they refresh the
  // document segment below even with no dirty paragraphs.
  if (dirty.empty() && !removedTracked) return;
  for (browser::Node* p : dirty) checkParagraphNode(hooks, p);

  // Refresh the document-granularity segment (paper S4.1 tracks both) and
  // run the document-level disclosure check: individually innocuous
  // paragraphs can cumulatively disclose a whole document ("one sentence
  // from each paragraph").
  std::string docText;
  hooks.page->document().root()->forEachNode([&](browser::Node& n) {
    if (n.isElement() && paragraphContainerOf(&n) == &n) {
      if (!docText.empty()) docText += "\n\n";
      docText += n.textContent();
    }
  });
  const std::string& url = hooks.page->url();
  DecisionRequest docReq;
  docReq.segmentName = url;
  docReq.documentName = url;
  docReq.serviceId = hooks.page->origin();
  docReq.text = std::move(docText);
  docReq.kind = flow::SegmentKind::kDocument;
  docReq.ingress = "plugin.document";
  const Decision d = engine_.decide(docReq);
  if (d.violation()) recordViolation(url, docReq.serviceId, d, docReq.text);
}

void BrowserFlowPlugin::checkParagraphNode(PageHooks& hooks,
                                           browser::Node* paragraph) {
  // Ingress point: the mutation path is where a decision's causal story
  // starts.
  const obs::TraceContext trace = obs::ingressTrace();
  obs::ScopedTraceContext traceScope(trace);
  static obs::Counter& checksCounter = obs::registry().counter(
      "bf_plugin_paragraph_checks_total",
      "Paragraph decisions triggered by DOM mutations");
  checksCounter.inc();
  auto it = hooks.paragraphNames.find(paragraph);
  if (it == hooks.paragraphNames.end()) {
    std::string name =
        hooks.page->url() + "#n" + std::to_string(hooks.nextNodeId++);
    it = hooks.paragraphNames.emplace(paragraph, std::move(name)).first;
  }
  DecisionRequest req;
  req.segmentName = it->second;
  req.documentName = hooks.page->url();
  req.serviceId = hooks.page->origin();
  req.text = paragraph->textContent();
  req.ingress = "plugin.paragraph";
  const Decision d = engine_.decide(req);

  // Surface the result the way the paper's plug-in does: by changing the
  // paragraph's background colour while it discloses sensitive data.
  paragraph->setAttribute(kStateAttr, d.violation() ? kViolation : kClean);
  paragraph->setAttribute(
      "style", d.violation() ? "background-color:#ffd6d6" : "");
  if (d.violation()) {
    recordViolation(req.segmentName, req.serviceId, d, req.text);
  }
}

void BrowserFlowPlugin::hookNewForms(PageHooks& hooks) {
  std::vector<browser::Node*> forms =
      hooks.page->document().root()->elementsByTag("form");
  for (browser::Node* form : forms) {
    if (hooks.hookedForms.insert(form).second) {
      installFormListener(hooks, form);
    }
  }
}

void BrowserFlowPlugin::installFormListener(PageHooks& hooks,
                                            browser::Node* form) {
  PageHooks* raw = &hooks;
  raw->page->addSubmitListener(form, [this, raw, form](
                                         browser::SubmitEvent& event) {
    browser::Page& page = *raw->page;
    // "inspects all non-hidden <input> elements in the form and extracts
    //  their value attributes" (S5.1).
    const std::vector<browser::Node*> inputs = browser::nonHiddenInputs(form);
    std::string combined;
    for (browser::Node* input : inputs) {
      const std::string v = input->attribute("value");
      if (v.empty()) continue;
      if (!combined.empty()) combined += "\n\n";
      combined += v;
    }
    if (combined.empty()) return;  // nothing to check

    static obs::Counter& formsCounter = obs::registry().counter(
        "bf_plugin_form_submissions_total",
        "Form submissions intercepted with user text");
    formsCounter.inc();
    // The form content becomes the page's draft segments (text in a
    // service's tab is "observed in" that service): "<url>/draft#p<i>" per
    // paragraph plus the "<url>/draft" document, which is what
    // suppressTag() takes to declassify form content.
    DecisionRequest draft;
    draft.segmentName = page.url() + "/draft";
    draft.documentName = draft.segmentName;
    draft.serviceId = page.origin();
    draft.text = std::move(combined);
    draft.ingress = "plugin.form";
    const Decision d = engine_.decideText(draft);
    if (!d.violation()) {
      return;  // default submission proceeds; drafts are already tracked
    }

    recordViolation(draft.segmentName, page.origin(), d, draft.text);
    switch (d.action) {
      case Decision::Action::kAllow:
      case Decision::Action::kWarn:
        // Advisory model: surface the warning, let the upload proceed.
        break;
      case Decision::Action::kBlock:
        event.preventDefault();
        appendAudit({tdm::AuditRecord::Kind::kUploadBlocked, clock_->now(), "",
                     tdm::Tag{}, page.url() + "/form", page.origin(),
                     sec::redact(draft.text).text});
        break;
      case Decision::Action::kEncrypt:
        // Seal every non-hidden value; the default submission then carries
        // ciphertext only.
        for (browser::Node* input : inputs) {
          const std::string v = input->attribute("value");
          if (!v.empty()) input->setAttribute("value", sealer_.seal(v));
        }
        appendAudit({tdm::AuditRecord::Kind::kUploadEncrypted, clock_->now(),
                     "", tdm::Tag{}, page.url() + "/form", page.origin(),
                     sec::redact(draft.text).text});
        break;
    }
  });
}

void BrowserFlowPlugin::registerServiceAdapter(
    const std::string& origin, std::unique_ptr<ServiceAdapter> adapter) {
  adapters_[origin] = std::move(adapter);
}

const ServiceAdapter& BrowserFlowPlugin::adapterFor(
    const std::string& origin, const browser::HttpRequest& request) const {
  auto it = adapters_.find(origin);
  if (it != adapters_.end()) return *it->second;
  if (util::looksLikeJson(request.body)) return jsonAdapter_;
  return formAdapter_;
}

void BrowserFlowPlugin::installXhrInterceptor(browser::Page& page) {
  // "BrowserFlow sets a custom XMLHttpRequest.prototype.send method,
  //  exposing an interception point to observe all HTTP requests" (S5.2).
  auto original = page.xhrPrototype().send;
  browser::Page* pagePtr = &page;
  page.xhrPrototype().send =
      [this, pagePtr, original](browser::Xhr& xhr,
                                const browser::HttpRequest& req)
      -> browser::HttpResponse {
    const ServiceAdapter& adapter = adapterFor(pagePtr->origin(), req);
    std::vector<UploadField> fields = adapter.extractUploadText(req);
    if (fields.empty()) return original(xhr, req);  // no user text
    static obs::Counter& xhrCounter = obs::registry().counter(
        "bf_plugin_xhr_uploads_total", "XHR uploads intercepted with user text");
    xhrCounter.inc();
    // One trace covers the whole intercepted upload: every per-field
    // decision below runs under it and carries its trace id.
    const obs::TraceContext trace = obs::ingressTrace();
    obs::ScopedTraceContext traceScope(trace);

    // Each field is probed (paragraphs, and the whole field when it has
    // several); the most restrictive verdict is enforced.
    const std::string& url = pagePtr->url();
    const std::string& origin = pagePtr->origin();
    Decision::Action action = Decision::Action::kAllow;
    std::vector<bool> violates(fields.size(), false);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      DecisionRequest probe;
      probe.segmentName = url + "/xhr";
      probe.documentName = url;
      probe.serviceId = origin;
      probe.text = fields[i].text;
      probe.requestKind = RequestKind::kProbe;
      probe.ingress = "plugin.upload";
      const Decision d = engine_.decideText(probe);
      action = std::max(action, d.action);
      if (d.violation()) {
        violates[i] = true;
        recordViolation(probe.segmentName, origin, d, fields[i].text);
      }
    }
    // Cumulative document-level check: the page's document segment (kept
    // fresh by the mutation path) may violate even when the uploaded
    // paragraphs do not.
    if (action == Decision::Action::kAllow) {
      DecisionRequest document;
      document.segmentName = url;
      document.documentName = url;
      document.serviceId = origin;
      document.kind = flow::SegmentKind::kDocument;
      document.requestKind = RequestKind::kProbe;
      document.ingress = "plugin.upload_document";
      const Decision d = engine_.decide(document);
      action = d.action;
      if (d.violation()) {
        recordViolation(url + "/xhr(document)", origin, d, req.body);
      }
    }

    switch (action) {
      case Decision::Action::kAllow:
      case Decision::Action::kWarn:
        return original(xhr, req);
      case Decision::Action::kBlock:
        appendAudit({tdm::AuditRecord::Kind::kUploadBlocked, clock_->now(), "",
                     tdm::Tag{}, url + "/xhr", origin,
                     sec::redact(req.body).text});
        return {403, "BrowserFlow: upload blocked by data disclosure policy"};
      case Decision::Action::kEncrypt: {
        for (std::size_t i = 0; i < fields.size(); ++i) {
          if (violates[i]) fields[i].text = sealer_.seal(fields[i].text);
        }
        browser::HttpRequest sealed = req;
        sealed.body = adapter.rebuildBody(req, fields);
        appendAudit({tdm::AuditRecord::Kind::kUploadEncrypted, clock_->now(),
                     "", tdm::Tag{}, url + "/xhr", origin,
                     sec::redact(req.body).text});
        return original(xhr, sealed);
      }
    }
    return original(xhr, req);
  };
}

void BrowserFlowPlugin::recordViolation(const std::string& segmentName,
                                        const std::string& serviceId,
                                        const Decision& d,
                                        sec::SensitiveView content) {
  static obs::Counter& violationsCounter = obs::registry().counter(
      "bf_plugin_violations_total",
      "Violations surfaced to the user (warn/block/encrypt)");
  violationsCounter.inc();
  // Only the redacted preview crosses into the audit trail; redact() is a
  // declassification gate (first/last few chars + length, DESIGN.md §14).
  appendAudit({tdm::AuditRecord::Kind::kViolationWarned, clock_->now(), "",
               tdm::Tag{}, segmentName, serviceId, sec::redact(content).text});
  warnings_.push_back(Warning{segmentName, serviceId, d});
}

void BrowserFlowPlugin::appendAudit(tdm::AuditRecord record) {
  // The audit log is policy state that decisions append to as well.
  const auto stateLock = engine_.lockState();
  policy_.audit().append(std::move(record));
}

void BrowserFlowPlugin::scanPage(browser::Page& page) {
  const browser::ExtractionResult extracted =
      browser::extractMainText(*page.document().root());
  if (extracted.text.empty()) return;
  observeServiceDocument(page.origin(), page.url(), extracted.text);
}

void BrowserFlowPlugin::observeServiceDocument(
    const std::string& serviceId, const std::string& docName,
    sec::SensitiveView text, std::optional<double> paragraphThreshold,
    std::optional<double> documentThreshold) {
  const auto stateLock = engine_.lockState();
  auto obs = tracker_.observeDocument(docName, serviceId, text,
                                      paragraphThreshold, documentThreshold);
  policy_.onSegmentObserved(docName, serviceId);
  for (flow::SegmentId pid : obs.paragraphs) {
    const flow::SegmentRecord* rec = tracker_.segment(pid);
    if (rec != nullptr) policy_.onSegmentObserved(rec->name, serviceId);
  }
}

util::Status BrowserFlowPlugin::suppressTag(const std::string& user,
                                            const std::string& segmentName,
                                            const tdm::Tag& tag,
                                            const std::string& justification) {
  const auto stateLock = engine_.lockState();
  util::Status status =
      policy_.suppressTag(user, segmentName, tag, justification);
  if (!status.ok()) return status;
  // Both granularities are checked on upload (paper S4.1); a paragraph
  // declassification extends to the containing document segment so the
  // document-level check does not silently re-block the same tag.
  const std::size_t hash = segmentName.rfind('#');
  if (hash != std::string::npos) {
    // Best-effort: the document may be untracked, or the tag not active
    // at document level; either way suppressTag changes nothing.
    (void)policy_.suppressTag(user, segmentName.substr(0, hash), tag,
                              justification + " (document granularity)");
  }
  return status;
}

std::string BrowserFlowPlugin::segmentNameOf(browser::Node* paragraph) const {
  for (const auto& hooks : hooks_) {
    auto it = hooks->paragraphNames.find(paragraph);
    if (it != hooks->paragraphNames.end()) return it->second;
  }
  return {};
}

}  // namespace bf::core
