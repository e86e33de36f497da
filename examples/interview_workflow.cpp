// Interview workflow: the paper's running example (Figs. 1 and 3-5) driven
// end-to-end through the full simulated stack — browser tabs, three cloud
// services, and the BrowserFlow plug-in in blocking mode.
//
//   Interview Tool (Lp = Lc = {ti})      internal, holds candidate data
//   Internal Wiki  (Lp = Lc = {tw})      internal, holds company knowledge
//   Google Docs    (unregistered)        external, untrusted
//
// Run: ./build/examples/interview_workflow

#include <cstdio>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/wiki_client.h"
#include "core/plugin.h"

int main() {
  using namespace bf;

  util::LogicalClock clock;
  util::Rng rng(2016);
  cloud::SimNetwork network(&rng);
  cloud::DocsBackend docsBackend;
  cloud::FormBackend wikiBackend;
  cloud::FormBackend itoolBackend;
  network.registerService("https://docs.google.com", &docsBackend);
  network.registerService("https://wiki.corp", &wikiBackend);
  network.registerService("https://itool.corp", &itoolBackend);

  core::BrowserFlowConfig config;
  config.mode = core::EnforcementMode::kBlock;  // mandatory enforcement
  core::BrowserFlowPlugin plugin(config, &clock);
  plugin.policy().services().upsert({"https://itool.corp", "Interview Tool",
                                     tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
  plugin.policy().services().upsert({"https://wiki.corp", "Internal Wiki",
                                     tdm::TagSet{"tw"}, tdm::TagSet{"tw"}});

  browser::Browser browser(&network);
  browser.addExtension(&plugin);

  // --- The interviewer reads a candidate evaluation in the Interview Tool.
  browser::Page& itoolTab = browser.openTab("https://itool.corp/eval/101");
  itoolTab.loadHtml(R"(
    <div id="nav"><a href="/">Interview Tool</a><a href="/queue">Queue</a></div>
    <div id="content">
      <p>Candidate 101 impressed in the distributed-systems interview, with a
      crisp treatment of leader election, log compaction, and failure
      recovery, scoring at the strong-hire bar.</p>
      <p>Concerns were limited to breadth in storage internals, which the
      next round should probe, focusing on compaction strategies, caches,
      and write amplification.</p>
    </div>)");
  plugin.scanPage(itoolTab);
  std::printf("[itool] evaluation page scanned and tracked\n");

  const std::string leakedText =
      "Candidate 101 impressed in the distributed-systems interview, with a "
      "crisp treatment of leader election, log compaction, and failure "
      "recovery, scoring at the strong-hire bar.";

  // --- Attempt 1: paste the evaluation into the internal Wiki.
  browser::Page& wikiTab = browser.openTab("https://wiki.corp/edit/hiring");
  cloud::WikiClient wiki(wikiTab, "hiring");
  wiki.openEditor();
  wiki.setContent(leakedText);
  int status = wiki.save();
  std::printf("[wiki ] paste evaluation -> save(): %s (posts stored: %zu)\n",
              status == 0 ? "BLOCKED" : "allowed", wikiBackend.postCount());

  // --- Attempt 2: paste it into Google Docs.
  browser::Page& docsTab = browser.openTab("https://docs.google.com/d/report");
  cloud::DocsClient docs(docsTab, "report");
  docs.openDocument();
  status = docs.insertParagraph(0, leakedText);
  std::printf("[gdocs] paste evaluation -> HTTP %d (%s)\n", status,
              status == 403 ? "BLOCKED by BrowserFlow" : "allowed");
  docs.deleteParagraph(0);

  // --- Attempt 3: the user rewrites the idea in their own words — no
  //     textual resemblance, so BrowserFlow stays quiet (by design).
  status = docs.insertParagraph(
      0,
      "Hiring update: the latest systems loop went very well and we expect "
      "to extend an offer pending the final storage-internals round.");
  std::printf("[gdocs] genuine rewrite  -> HTTP %d (%s)\n", status,
              status == 200 ? "allowed" : "blocked");

  // --- Attempt 4: declassification. The interviewer copies the evaluation
  //     again, reviews the warning, suppresses the tag with a justification
  //     and retries: this time the upload goes through, with an audit trail.
  status = docs.insertParagraph(1, leakedText);
  std::printf("[gdocs] paste again      -> HTTP %d\n", status);
  const std::string segment = plugin.segmentNameOf(docs.paragraphNode(1));
  plugin.suppressTag("alice", segment, "ti",
                     "candidate consented to sharing the summary");
  status = docs.typeChar(1, '.');  // re-triggers the pipeline
  std::printf("[gdocs] after suppression-> HTTP %d (%s)\n", status,
              status == 200 ? "allowed, audited" : "still blocked");

  // --- What did the organisation record?
  std::printf("\naudit trail (%zu records):\n", plugin.policy().audit().size());
  for (const auto& rec : plugin.policy().audit().records()) {
    const char* kind = "?";
    switch (rec.kind) {
      case tdm::AuditRecord::Kind::kTagSuppressed:      kind = "tag-suppressed"; break;
      case tdm::AuditRecord::Kind::kCustomTagAllocated: kind = "custom-tag"; break;
      case tdm::AuditRecord::Kind::kPrivilegeChanged:   kind = "privilege"; break;
      case tdm::AuditRecord::Kind::kUploadBlocked:      kind = "upload-blocked"; break;
      case tdm::AuditRecord::Kind::kUploadEncrypted:    kind = "upload-encrypted"; break;
      case tdm::AuditRecord::Kind::kViolationWarned:    kind = "violation-warned"; break;
      case tdm::AuditRecord::Kind::kDecisionDegraded:   kind = "decision-degraded"; break;
    }
    std::printf("  t=%llu %-17s user=%-6s tag=%-3s %s\n",
                static_cast<unsigned long long>(rec.at), kind,
                rec.user.empty() ? "-" : rec.user.c_str(),
                rec.tag.empty() ? "-" : rec.tag.c_str(),
                rec.justification.c_str());
  }

  std::printf("\nfinal Google Docs content (as stored by the service):\n");
  for (const auto& p : docsBackend.paragraphsOf("report")) {
    std::printf("  | %.70s%s\n", p.c_str(), p.size() > 70 ? "..." : "");
  }
  return 0;
}
