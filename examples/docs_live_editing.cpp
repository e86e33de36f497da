// Live editing in the Docs-style service: shows the advisory (warn) mode
// the paper argues for — paragraph backgrounds turn red while they disclose
// sensitive text and recover as the user edits away from the source, all
// driven by per-keystroke mutation-observer checks (paper S5.2, S6.2).
//
// Run: ./build/examples/docs_live_editing

#include <cstdio>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/network.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "obs/metrics.h"

namespace {

void printEditor(bf::cloud::DocsClient& docs) {
  for (std::size_t i = 0; i < docs.paragraphCount(); ++i) {
    bf::browser::Node* p = docs.paragraphNode(i);
    const std::string state =
        p->attribute(bf::core::BrowserFlowPlugin::kStateAttr);
    const std::string text = p->textContent();
    std::printf("  [%s] %.60s%s\n",
                state == bf::core::BrowserFlowPlugin::kViolation ? "!!"
                : state.empty()                                  ? "  "
                                                                 : "ok",
                text.c_str(), text.size() > 60 ? "..." : "");
  }
}

}  // namespace

int main() {
  using namespace bf;

  util::LogicalClock clock;
  util::Rng rng(7);
  corpus::TextGenerator gen(&rng);
  cloud::SimNetwork network(&rng);
  cloud::DocsBackend backend;
  network.registerService("https://docs.google.com", &backend);

  core::BrowserFlowPlugin plugin(core::BrowserFlowConfig{}, &clock);  // warn
  plugin.policy().services().upsert({"https://crm.corp", "CRM",
                                     tdm::TagSet{"crm"}, tdm::TagSet{"crm"}});

  browser::Browser browser(&network);
  browser.addExtension(&plugin);

  // Sensitive CRM notes already exist inside the organisation.
  const std::string crmNotes =
      "Acme Corp renewal: they signalled budget pressure and asked for a "
      "nineteen percent discount; legal flagged the liability clause, and "
      "the champion is leaving at the end of the quarter.";
  plugin.observeServiceDocument("https://crm.corp",
                                "https://crm.corp/accounts/acme", crmNotes);

  browser::Page& tab = browser.openTab("https://docs.google.com/d/notes");
  cloud::DocsClient docs(tab, "notes");
  docs.openDocument();

  std::printf("1) typing fresh meeting notes (clean):\n");
  docs.insertParagraph(0, "Agenda: quarterly business review with Acme.");
  printEditor(docs);

  std::printf("\n2) pasting CRM notes (red background — advisory warning):\n");
  docs.insertParagraph(1, crmNotes);
  printEditor(docs);
  std::printf("   warnings so far: %zu\n", plugin.warnings().size());

  std::printf("\n3) the user trims the paragraph down to a harmless line:\n");
  docs.setParagraph(1, "Acme renewal: commercial discussion ongoing.");
  printEditor(docs);

  std::printf("\n4) per-keystroke editing stays fast via the decision "
              "cache:\n");
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  docs.typeText(0, " Attendees: sales, legal, product.");
  const obs::MetricsSnapshot typed = obs::registry().snapshot().diff(before);
  const std::uint64_t cacheHits =
      typed.counterValue("bf_tracker_cache_hits_total");
  std::printf("   keystroke decisions: %llu, served from cache: %llu\n",
              static_cast<unsigned long long>(
                  typed.counterValue("bf_tracker_queries_total") + cacheHits),
              static_cast<unsigned long long>(cacheHits));

  std::printf("\nfinal document as the cloud service stored it:\n");
  for (const auto& p : backend.paragraphsOf("notes")) {
    std::printf("  | %.70s%s\n", p.c_str(), p.size() > 70 ? "..." : "");
  }
  std::printf("\n(advisory mode: everything was uploaded, but the user was "
              "warned at step 2)\n");
  return 0;
}
