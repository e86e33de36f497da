// End-to-end integration tests: the paper's running example (Fig. 1) driven
// through the full stack — browser tabs, simulated services, the plug-in's
// interception, the flow tracker and the TDM policy.
#include <gtest/gtest.h>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/wiki_client.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"

namespace bf {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  explicit EndToEndTest(
      core::BrowserFlowConfig config = core::BrowserFlowConfig{})
      : rng_(99),
        gen_(&rng_),
        network_(&rng_),
        plugin_(config, &clock_),
        browser_(&network_) {
    network_.registerService("https://docs.google.com", &docsBackend_);
    network_.registerService("https://wiki.corp", &wikiBackend_);
    network_.registerService("https://itool.corp", &itoolBackend_);
    // Fig. 3 policy: unique tags keep the two internal services apart;
    // Google Docs is external/untrusted (unregistered, Lp = {}).
    plugin_.policy().services().upsert({"https://itool.corp",
                                        "Interview Tool", tdm::TagSet{"ti"},
                                        tdm::TagSet{"ti"}});
    plugin_.policy().services().upsert({"https://wiki.corp", "Internal Wiki",
                                        tdm::TagSet{"tw"},
                                        tdm::TagSet{"tw"}});
    browser_.addExtension(&plugin_);
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  cloud::SimNetwork network_;
  cloud::DocsBackend docsBackend_;
  cloud::FormBackend wikiBackend_;
  cloud::FormBackend itoolBackend_;
  core::BrowserFlowPlugin plugin_;
  browser::Browser browser_;
};

class EndToEndBlockTest : public EndToEndTest {
 protected:
  EndToEndBlockTest() : EndToEndTest([] {
    core::BrowserFlowConfig c;
    c.mode = core::EnforcementMode::kBlock;
    return c;
  }()) {}
};

TEST_F(EndToEndBlockTest, InterviewWorkflowScenario) {
  // 1. An interviewer reads a candidate evaluation in the Interview Tool.
  browser::Page& itoolTab = browser_.openTab("https://itool.corp/eval/101");
  const std::string evaluation = gen_.paragraph(7, 9);
  itoolTab.loadHtml("<div id=\"content\"><p>" + evaluation + "</p></div>");
  plugin_.scanPage(itoolTab);

  // 2. They paste it into the internal Wiki: {ti} ⊄ {tw} — blocked.
  browser::Page& wikiTab = browser_.openTab("https://wiki.corp/edit/howto");
  cloud::WikiClient wiki(wikiTab, "howto");
  wiki.openEditor();
  wiki.setContent(evaluation);
  EXPECT_EQ(wiki.save(), 0);
  EXPECT_EQ(wikiBackend_.postCount(), 0u);

  // 3. They paste it into Google Docs: {ti} ⊄ {} — blocked too.
  browser::Page& docsTab = browser_.openTab("https://docs.google.com/d/X");
  cloud::DocsClient docs(docsTab, "X");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, evaluation), 403);
  EXPECT_TRUE(docsBackend_.paragraphsOf("X").empty());
  // The flagged text still sits in the tab; while it does, the document
  // as a whole keeps violating, so the user deletes it...
  docs.deleteParagraph(0);

  // 4. ...and unrelated notes sail through everywhere.
  EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(7, 9)), 200);
  wiki.setContent(gen_.paragraph(7, 9));
  EXPECT_EQ(wiki.save(), 200);
}

TEST_F(EndToEndBlockTest, WikiToItoolAllowedWhenPrivileged) {
  // The admin trusts the Interview Tool with Wiki data (Fig. 5 setup).
  plugin_.policy().services().upsert({"https://itool.corp", "Interview Tool",
                                      tdm::TagSet{"ti", "tw"},
                                      tdm::TagSet{"ti"}});
  const std::string guidelines = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://wiki.corp",
                                 "https://wiki.corp/page/guide", guidelines);

  browser::Page& itoolTab = browser_.openTab("https://itool.corp/notes");
  itoolTab.loadHtml(R"(<form id="f" action="/notes/save">
      <input type="text" name="content" value=""></form>)");
  browser::Node* form = itoolTab.document().root()->byId("f");
  form->elementsByTag("input")[0]->setAttribute("value", guidelines);
  EXPECT_EQ(itoolTab.submitForm(form).status, 200);
  EXPECT_EQ(itoolBackend_.postCount(), 1u);
}

TEST_F(EndToEndBlockTest, SuppressionUnblocksUploadWithAuditTrail) {
  const std::string evaluation = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/eval/7", evaluation);

  browser::Page& docsTab = browser_.openTab("https://docs.google.com/d/Y");
  cloud::DocsClient docs(docsTab, "Y");
  docs.openDocument();
  ASSERT_EQ(docs.insertParagraph(0, evaluation), 403);

  // The user reviews the warning and declassifies this copy.
  const std::string segName = plugin_.segmentNameOf(docs.paragraphNode(0));
  ASSERT_FALSE(segName.empty());
  ASSERT_TRUE(plugin_
                  .suppressTag("alice", segName, "ti",
                               "evaluation anonymised before sharing")
                  .ok());
  // Retyping the final character re-runs the pipeline; upload now passes.
  EXPECT_EQ(docs.typeChar(0, '.'), 200);
  EXPECT_EQ(docsBackend_.paragraphsOf("Y").size(), 1u);

  // Paragraph + containing document granularities are both audited.
  const auto records =
      plugin_.policy().audit().byKind(tdm::AuditRecord::Kind::kTagSuppressed);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].user, "alice");
}

TEST_F(EndToEndBlockTest, ModifiedBeyondRecognitionIsFreeToShare) {
  const std::string evaluation = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/eval/8", evaluation);
  browser::Page& docsTab = browser_.openTab("https://docs.google.com/d/Z");
  cloud::DocsClient docs(docsTab, "Z");
  docs.openDocument();
  // A complete rewrite of the idea in fresh words: no similarity, no block.
  EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(7, 9)), 200);
}

TEST_F(EndToEndTest, Figure6TransitiveStaleTaintDoesNotPropagate) {
  // Services as in Fig. 6: Wiki may hold Interview Tool data; Google Docs
  // may hold Wiki data (tw in Lp) but not Interview Tool data.
  plugin_.policy().services().upsert({"https://wiki.corp", "Internal Wiki",
                                      tdm::TagSet{"tw", "ti"},
                                      tdm::TagSet{"tw"}});
  // Register gdocs as a service whose Lp includes tw.
  plugin_.policy().services().upsert({"https://docs.google.com",
                                      "Google Docs", tdm::TagSet{"tw"},
                                      tdm::TagSet{}});

  // Segment A in the Interview Tool, segment B in the Wiki.
  const std::string textA = gen_.paragraph(7, 9);
  const std::string textB = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/A", textA);
  plugin_.observeServiceDocument("https://wiki.corp", "https://wiki.corp/B",
                                 textB);

  // Step 1: the user appends A's text to B (in the Wiki, which is allowed
  // to receive ti). B now discloses A; its label gains implicit ti.
  const std::string textB1 = textB + " " + textA;
  plugin_.observeServiceDocument("https://wiki.corp",
                                 "https://wiki.corp/B", textB1);
  core::DecisionRequest reqB;
  reqB.segmentName = "https://wiki.corp/B#p0";
  reqB.documentName = "https://wiki.corp/B";
  reqB.serviceId = "https://wiki.corp";
  reqB.text = textB1;
  auto d1 = plugin_.engine().decide(reqB);
  EXPECT_FALSE(d1.violation()) << "Wiki holds ti in Lp";
  const tdm::Label* labelB = plugin_.policy().labelOf("https://wiki.corp/B#p0");
  ASSERT_NE(labelB, nullptr);
  EXPECT_TRUE(labelB->implicitTags().contains("ti"));

  // While B still resembles A, copying B's A-part to Google Docs violates.
  browser::Page& docsTab = browser_.openTab("https://docs.google.com/d/C");
  cloud::DocsClient docs(docsTab, "C");
  docs.openDocument();
  docs.insertParagraph(0, textA);
  EXPECT_EQ(docs.paragraphNode(0)->attribute(core::BrowserFlowPlugin::kStateAttr),
            core::BrowserFlowPlugin::kViolation);
  docs.deleteParagraph(0);

  // Step 2: A is edited until it bears no resemblance to its old content.
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/A", gen_.paragraph(9, 11));

  // Step 3: copying B's text (including the part that CAME from A) to
  // Google Docs now only carries B's explicit {tw} — allowed, because the
  // current Interview Tool content is no longer disclosed. Implicit ti on
  // B must NOT propagate.
  docs.insertParagraph(0, textB1);
  EXPECT_EQ(docs.paragraphNode(0)->attribute(core::BrowserFlowPlugin::kStateAttr),
            core::BrowserFlowPlugin::kClean)
      << "stale taint propagated transitively";
}

TEST_F(EndToEndTest, CustomTagRestrictsPreviouslyAllowedFlow) {
  // Wiki data is allowed into the Interview Tool via admin policy.
  plugin_.policy().services().upsert({"https://itool.corp", "Interview Tool",
                                      tdm::TagSet{"ti", "tw"},
                                      tdm::TagSet{"ti"}});
  const std::string secret = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://wiki.corp",
                                 "https://wiki.corp/S", secret);
  // Flow allowed before the custom tag...
  EXPECT_TRUE(plugin_.policy()
                  .checkUpload("https://wiki.corp/S#p0", "https://itool.corp")
                  .allowed);
  // ...the author protects it with tn (Fig. 5).
  ASSERT_TRUE(plugin_.policy().allocateCustomTag("bob", "tn").ok());
  ASSERT_TRUE(plugin_.policy()
                  .addCustomTagToSegment("bob", "https://wiki.corp/S#p0", "tn")
                  .ok());
  EXPECT_FALSE(plugin_.policy()
                   .checkUpload("https://wiki.corp/S#p0", "https://itool.corp")
                   .allowed);
  // The Wiki itself got tn auto-granted (it already stores the segment).
  EXPECT_TRUE(plugin_.policy()
                  .checkUpload("https://wiki.corp/S#p0", "https://wiki.corp")
                  .allowed);
}

TEST_F(EndToEndBlockTest, DirectionalPolicyBetweenInternalServices) {
  // Paper S2: "transferring text from the internal Wiki to the Interview
  // Tool is permitted, but not the reverse". Achieved with
  // Lp(itool) = {ti, tw}, Lp(wiki) = {tw}.
  plugin_.policy().services().upsert({"https://itool.corp", "Interview Tool",
                                      tdm::TagSet{"ti", "tw"},
                                      tdm::TagSet{"ti"}});
  const std::string wikiText = gen_.paragraph(7, 9);
  const std::string itoolText = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://wiki.corp", "https://wiki.corp/w",
                                 wikiText);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/i", itoolText);

  // Wiki -> Interview Tool: permitted.
  browser::Page& itoolTab = browser_.openTab("https://itool.corp/notes");
  itoolTab.loadHtml(R"(<form id="f" action="/notes/save">
      <textarea name="content" value=""></textarea></form>)");
  browser::Node* itoolForm = itoolTab.document().root()->byId("f");
  itoolForm->elementsByTag("textarea")[0]->setAttribute("value", wikiText);
  EXPECT_EQ(itoolTab.submitForm(itoolForm).status, 200);

  // Interview Tool -> Wiki: blocked.
  browser::Page& wikiTab = browser_.openTab("https://wiki.corp/edit/x");
  cloud::WikiClient wiki(wikiTab, "x");
  wiki.openEditor();
  wiki.setContent(itoolText);
  EXPECT_EQ(wiki.save(), 0);
}

TEST_F(EndToEndTest, NetworkLogShowsOnlyPermittedPlaintext) {
  // In warn (advisory) mode everything flows, but warnings accumulate; the
  // network log lets an auditor reconstruct what left the browser.
  const std::string evaluation = gen_.paragraph(7, 9);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/eval", evaluation);
  browser::Page& docsTab = browser_.openTab("https://docs.google.com/d/W");
  cloud::DocsClient docs(docsTab, "W");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, evaluation), 200);  // warn mode
  EXPECT_FALSE(plugin_.warnings().empty());
  EXPECT_FALSE(network_.requestsTo("https://docs.google.com").empty());
}

}  // namespace
}  // namespace bf
