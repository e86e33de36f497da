// Tests for BrowserFlowPlugin: interception through real browser/cloud
// machinery — mutation observers, form listeners, the XHR prototype patch,
// highlights and enforcement modes.
#include <gtest/gtest.h>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/wiki_client.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "crypto/sealer.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "util/json_text.h"

namespace bf::core {
namespace {

class PluginTest : public ::testing::Test {
 protected:
  explicit PluginTest(BrowserFlowConfig config = BrowserFlowConfig{})
      : rng_(21),
        gen_(&rng_),
        network_(&rng_),
        plugin_(config, &clock_),
        browser_(&network_) {
    network_.registerService("https://docs.google.com", &docsBackend_);
    network_.registerService("https://wiki.corp", &wikiBackend_);
    network_.registerService("https://itool.corp", &itoolBackend_);

    plugin_.policy().services().upsert({"https://itool.corp",
                                        "Interview Tool", tdm::TagSet{"ti"},
                                        tdm::TagSet{"ti"}});
    plugin_.policy().services().upsert({"https://wiki.corp", "Internal Wiki",
                                        tdm::TagSet{"tw"},
                                        tdm::TagSet{"tw"}});
    // Google Docs is external: unregistered, so Lp = Lc = {}.
    browser_.addExtension(&plugin_);
  }

  static BrowserFlowConfig configWithMode(EnforcementMode mode) {
    BrowserFlowConfig c;
    c.mode = mode;
    return c;
  }

  /// Seeds a sensitive Interview Tool paragraph the tests leak.
  std::string seedInterviewData() {
    const std::string text = gen_.paragraph(6, 9);
    plugin_.observeServiceDocument("https://itool.corp",
                                   "https://itool.corp/eval/42", text);
    return text;
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  cloud::SimNetwork network_;
  cloud::DocsBackend docsBackend_;
  cloud::FormBackend wikiBackend_;
  cloud::FormBackend itoolBackend_;
  BrowserFlowPlugin plugin_;
  browser::Browser browser_;
};

TEST_F(PluginTest, ObserveServiceDocumentRegistersSegmentsAndLabels) {
  const std::string text = gen_.paragraph(5, 7) + "\n\n" + gen_.paragraph(5, 7);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/eval/1", text);
  const auto* seg = plugin_.tracker().segmentByName(
      "https://itool.corp/eval/1#p0");
  ASSERT_NE(seg, nullptr);
  const tdm::Label* label =
      plugin_.policy().labelOf("https://itool.corp/eval/1#p0");
  ASSERT_NE(label, nullptr);
  EXPECT_TRUE(label->explicitTags().contains("ti"));
}

TEST_F(PluginTest, DocsEditingHighlightsLeakedParagraph) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc1");
  cloud::DocsClient docs(page, "doc1");
  docs.openDocument();

  // Pasting the secret into Google Docs: paragraph marked as violating.
  docs.insertParagraph(0, secret);
  browser::Node* para = docs.paragraphNode(0);
  ASSERT_NE(para, nullptr);
  EXPECT_EQ(para->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kViolation);
  EXPECT_NE(para->attribute("style").find("background"), std::string::npos);
  EXPECT_FALSE(plugin_.warnings().empty());

  // Fresh text in another paragraph stays clean.
  docs.insertParagraph(1, gen_.paragraph(6, 9));
  EXPECT_EQ(docs.paragraphNode(1)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kClean);
}

TEST_F(PluginTest, RewritingParagraphClearsHighlight) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc2");
  cloud::DocsClient docs(page, "doc2");
  docs.openDocument();
  docs.insertParagraph(0, secret);
  ASSERT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kViolation);
  // Rewrite it from scratch: no more resemblance, no more violation.
  docs.setParagraph(0, gen_.paragraph(7, 9));
  EXPECT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kClean);
}

TEST_F(PluginTest, WarnModeLetsUploadThrough) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc3");
  cloud::DocsClient docs(page, "doc3");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, secret), 200);
  // Advisory mode: the backend received the plaintext.
  EXPECT_EQ(docsBackend_.paragraphsOf("doc3").size(), 1u);
  EXPECT_FALSE(plugin_.warnings().empty());
}

TEST_F(PluginTest, SegmentNameAssignedToTrackedParagraph) {
  seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc4");
  cloud::DocsClient docs(page, "doc4");
  docs.openDocument();
  docs.insertParagraph(0, gen_.paragraph(5, 7));
  const std::string name = plugin_.segmentNameOf(docs.paragraphNode(0));
  EXPECT_FALSE(name.empty());
  EXPECT_NE(plugin_.tracker().segmentByName(name), nullptr);
}

TEST_F(PluginTest, DeletedParagraphForgotten) {
  seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc5");
  cloud::DocsClient docs(page, "doc5");
  docs.openDocument();
  docs.insertParagraph(0, gen_.paragraph(5, 7));
  const std::string name = plugin_.segmentNameOf(docs.paragraphNode(0));
  ASSERT_NE(plugin_.tracker().segmentByName(name), nullptr);
  docs.deleteParagraph(0);
  EXPECT_EQ(plugin_.tracker().segmentByName(name), nullptr);
}

TEST_F(PluginTest, WikiFormSubmissionCleanTextPasses) {
  browser::Page& page = browser_.openTab("https://wiki.corp/edit/notes");
  cloud::WikiClient wiki(page, "notes");
  wiki.openEditor();
  wiki.setContent(gen_.paragraph(6, 9));
  EXPECT_EQ(wiki.save(), 200);
  EXPECT_EQ(wikiBackend_.postCount(), 1u);
}

TEST_F(PluginTest, WikiFormWarnsOnLeakButProceedsInWarnMode) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://wiki.corp/edit/notes");
  cloud::WikiClient wiki(page, "notes");
  wiki.openEditor();
  wiki.setContent(secret);
  EXPECT_EQ(wiki.save(), 200);  // advisory: proceeds
  EXPECT_FALSE(plugin_.warnings().empty());
  EXPECT_EQ(plugin_.warnings().back().serviceId, "https://wiki.corp");
}

TEST_F(PluginTest, ScanPageSeedsTrackerFromStaticHtml) {
  browser::Page& page = browser_.openTab("https://itool.corp/eval/7");
  page.loadHtml(R"(
    <div id="nav"><a href="/">Home</a></div>
    <div id="content">
      <p>The candidate demonstrated excellent distributed systems design
      skills, with deep knowledge of consensus protocols, and replication.</p>
      <p>We recommend proceeding to the next interview round, with focus on
      coding, communication, and architectural judgement.</p>
    </div>)");
  plugin_.scanPage(page);
  // Both paragraphs are now tracked as itool content.
  const auto hits = plugin_.tracker().checkText(
      "The candidate demonstrated excellent distributed systems design "
      "skills, with deep knowledge of consensus protocols, and replication.",
      "elsewhere");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sourceService, "https://itool.corp");
}

TEST_F(PluginTest, SuppressTagDelegatesToPolicy) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc6");
  cloud::DocsClient docs(page, "doc6");
  docs.openDocument();
  docs.insertParagraph(0, secret);
  const std::string name = plugin_.segmentNameOf(docs.paragraphNode(0));
  ASSERT_TRUE(
      plugin_.suppressTag("alice", name, "ti", "cleared with manager").ok());
  // Editing re-decides: now clean.
  docs.typeChar(0, '!');
  EXPECT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kClean);
  // Two records: the paragraph plus its containing document segment
  // (suppression extends to both granularities).
  EXPECT_EQ(plugin_.policy()
                .audit()
                .byKind(tdm::AuditRecord::Kind::kTagSuppressed)
                .size(),
            2u);
}

// ---- Block mode ---------------------------------------------------------------

class BlockModeTest : public PluginTest {
 protected:
  BlockModeTest() : PluginTest(configWithMode(EnforcementMode::kBlock)) {}
};

TEST_F(BlockModeTest, XhrUploadBlocked) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc7");
  cloud::DocsClient docs(page, "doc7");
  docs.openDocument();
  const int status = docs.insertParagraph(0, secret);
  EXPECT_EQ(status, 403);
  // The paragraph never reached the backend.
  EXPECT_TRUE(docsBackend_.paragraphsOf("doc7").empty());
  // And an audit record exists.
  EXPECT_EQ(plugin_.policy()
                .audit()
                .byKind(tdm::AuditRecord::Kind::kUploadBlocked)
                .size(),
            1u);
}

TEST_F(BlockModeTest, CleanUploadStillPasses) {
  seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc8");
  cloud::DocsClient docs(page, "doc8");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(6, 9)), 200);
  EXPECT_EQ(docsBackend_.paragraphsOf("doc8").size(), 1u);
}

TEST_F(BlockModeTest, FormSubmissionBlocked) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://wiki.corp/edit/leak");
  cloud::WikiClient wiki(page, "leak");
  wiki.openEditor();
  wiki.setContent(secret);
  EXPECT_EQ(wiki.save(), 0);  // suppressed
  EXPECT_EQ(wikiBackend_.postCount(), 0u);
}

// ---- Encrypt mode ----------------------------------------------------------------

class EncryptModeTest : public PluginTest {
 protected:
  EncryptModeTest() : PluginTest(configWithMode(EnforcementMode::kEncrypt)) {}
};

TEST_F(EncryptModeTest, XhrPayloadSealedBeforeUpload) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/doc9");
  cloud::DocsClient docs(page, "doc9");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, secret), 200);
  const auto stored = docsBackend_.paragraphsOf("doc9");
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_TRUE(crypto::Sealer::isSealed(stored[0]))
      << "backend must only see ciphertext";
  // The organisation can decrypt.
  const auto plain = plugin_.sealer().unseal(stored[0]);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, secret);
}

TEST_F(EncryptModeTest, FormValuesSealedBeforeSubmission) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://wiki.corp/edit/enc");
  cloud::WikiClient wiki(page, "enc");
  wiki.openEditor();
  wiki.setContent(secret);
  EXPECT_EQ(wiki.save(), 200);
  EXPECT_EQ(wikiBackend_.postCount(), 1u);
  // Every stored field value is sealed; the title too (it is non-hidden).
  bool sawSealedContent = false;
  for (const auto& [key, value] : wikiBackend_.documents()) {
    if (crypto::Sealer::isSealed(value)) sawSealedContent = true;
    EXPECT_EQ(value.find(secret), std::string::npos);
  }
  EXPECT_TRUE(sawSealedContent);
}

// ---- Provenance: one trace per intercepted upload ---------------------------------

class UploadProvenanceTest : public BlockModeTest {
 protected:
  UploadProvenanceTest() : savedSampleEvery_(obs::traceSampleEvery()) {
    // Keep every decision, so the recorder holds each per-field record.
    obs::setTraceSampleEvery(1);
  }
  ~UploadProvenanceTest() override {
    obs::setTraceSampleEvery(savedSampleEvery_);
  }

  /// A JSON save with two text fields; the first has two paragraphs, one
  /// of them leaked from the Interview Tool.
  std::string multiFieldBody(const std::string& secret) {
    return "{\"text\":\"" +
           util::escapeJsonString(secret + "\n\n" + gen_.paragraph(6, 9)) +
           "\",\"comment\":\"" +
           util::escapeJsonString(gen_.paragraph(6, 9)) + "\"}";
  }

  static int sendJson(browser::Page& page, const std::string& body) {
    browser::Xhr xhr = page.newXhr();
    xhr.open("POST", page.url() + "/save");
    xhr.setRequestHeader("content-type", "application/json");
    return xhr.send(body).status;
  }

  /// Retained records made after `sinceDecisionId`, oldest first.
  static std::vector<obs::DecisionTrace> recordsSince(
      std::uint64_t sinceDecisionId) {
    std::vector<obs::DecisionTrace> out;
    for (auto& record : obs::FlightRecorder::instance().recent()) {
      if (record.decisionId > sinceDecisionId) out.push_back(std::move(record));
    }
    return out;
  }

 private:
  std::uint32_t savedSampleEvery_;
};

TEST_F(UploadProvenanceTest, EveryFieldDecisionCarriesTheUploadTrace) {
  const std::string secret = seedInterviewData();
  browser::Page& page = browser_.openTab("https://docs.google.com/d/prov1");

  std::uint64_t before = obs::FlightRecorder::instance().lastDecisionId();
  EXPECT_EQ(sendJson(page, multiFieldBody(secret)), 403);
  const std::vector<obs::DecisionTrace> first = recordsSince(before);
  // Two paragraphs and the whole of the first field, plus the second.
  ASSERT_GE(first.size(), 4u);
  const std::uint64_t traceId = first.front().traceId;
  EXPECT_NE(traceId, 0u);
  for (const auto& record : first) {
    EXPECT_EQ(record.traceId, traceId) << record.segmentName;
    EXPECT_EQ(record.ingress, "plugin.upload");
  }

  // The next upload is a causal flow of its own.
  before = obs::FlightRecorder::instance().lastDecisionId();
  EXPECT_EQ(sendJson(page, multiFieldBody(secret)), 403);
  const std::vector<obs::DecisionTrace> second = recordsSince(before);
  ASSERT_FALSE(second.empty());
  EXPECT_NE(second.front().traceId, traceId);
}

}  // namespace
}  // namespace bf::core
