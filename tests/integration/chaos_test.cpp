// Chaos end-to-end test: the full stack (browser + plug-in + clients) runs
// against a FaultInjector-wrapped SimNetwork at a >= 20% fault rate. The
// plug-in decides every upload before it leaves, so network faults sit
// after the verdict and must never change one:
//
//  1. Verdicts: one seeded edit script gives the same per-decision
//     (segment, action) sequence through a fault-free stack and through
//     the faulty one;
//  2. Safety: uploads the policy BLOCKS never reach the network — the
//     plug-in intercepts before the injector/network see the request, and
//     faults never shake sensitive payloads loose;
//  3. Allowed saves see 200 or the fault itself, never a policy 403, and
//     one save once the faults stop brings the backend in line with the
//     editor.
//
// Provenance acceptance rides on this file: every blocked decision
// produced under chaos must resolve to a complete causal record in the
// flight recorder (ingress → stages → verdict).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cloud/fault_injector.h"
#include "cloud/network.h"
#include "cloud/notes_client.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/strings.h"

namespace bf {
namespace {

constexpr double kFaultRate = 0.24;  // >= 20%, spread over 4 fault kinds
constexpr char kNotesOrigin[] = "https://notes.corp";
constexpr char kItoolOrigin[] = "https://itool.corp";

core::BrowserFlowConfig blockConfig() {
  core::BrowserFlowConfig c;
  c.mode = core::EnforcementMode::kBlock;
  return c;
}

/// Forwards to `inner` and keeps the last response, so a test can tell a
/// fault's status 0 (a "bf-fault:" body) from any other.
class LastResponse final : public browser::RequestSink {
 public:
  explicit LastResponse(browser::RequestSink* inner) : inner_(inner) {}
  browser::HttpResponse handle(const browser::HttpRequest& req) override {
    last = inner_->handle(req);
    return last;
  }
  browser::HttpResponse last;

 private:
  browser::RequestSink* inner_;
};

/// An allowed save's outcome under faults: 200, or the fault itself (a
/// 503, or status 0 with a fault body) — never a policy 403.
bool landedOrFaulted(int status, const browser::HttpResponse& last) {
  return status == 200 || status == 503 ||
         (status == 0 && util::startsWith(last.body, cloud::kFaultBodyPrefix));
}

/// One browser with the plug-in and a notes service, whose requests pass
/// through a FaultInjector with `faults` before the network.
struct NotesStack {
  explicit NotesStack(const cloud::FaultConfig& faults)
      : rng(99),
        network(&rng),
        faultNet(&network, /*seed=*/4242, faults),
        lastResponse(&faultNet),
        plugin(blockConfig(), &clock),
        browser(&lastResponse) {
    network.registerService(kNotesOrigin, &notesBackend);
    // The notes service is external/unregistered: Lp = {}, so anything
    // carrying the interview tag is blocked there.
    plugin.policy().services().upsert({kItoolOrigin, "Interview Tool",
                                       tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
    browser.addExtension(&plugin);
  }

  util::LogicalClock clock;
  util::Rng rng;
  cloud::SimNetwork network;
  cloud::FaultInjector faultNet;
  LastResponse lastResponse;
  cloud::NotesBackend notesBackend;
  core::BrowserFlowPlugin plugin;
  browser::Browser browser;
};

/// A seeded edit script: clean paragraphs to append and rewrite, then a
/// paste of an Interview Tool evaluation. Generated up front so both runs
/// edit the same texts whatever the network draws from its own rng.
struct EditScript {
  std::vector<std::string> clean;
  std::string evaluation;
};

EditScript makeScript(std::uint64_t seed) {
  util::Rng rng(seed);
  corpus::TextGenerator gen(&rng);
  EditScript script;
  for (int i = 0; i < 30; ++i) script.clean.push_back(gen.paragraph(4, 6));
  script.evaluation = gen.paragraph(7, 9);
  return script;
}

/// Flight-recorder records appended after `sinceDecisionId`, oldest first.
std::vector<obs::DecisionTrace> recordsSince(std::uint64_t sinceDecisionId) {
  std::vector<obs::DecisionTrace> out;
  for (auto& record : obs::FlightRecorder::instance().recent()) {
    if (record.decisionId > sinceDecisionId) out.push_back(std::move(record));
  }
  return out;
}

/// What one run of the script produced.
struct ScriptRun {
  /// (segment, action) of every decision the run made, in order.
  std::vector<std::pair<std::string, std::string>> verdicts;
  /// Status and last network response of each save the policy allows.
  std::vector<std::pair<int, browser::HttpResponse>> allowedSaves;
  int blockedStatus = 0;
  /// Retained records of the blocked paste's decisions.
  std::vector<obs::DecisionTrace> blockedRecords;
};

ScriptRun runScript(NotesStack& stack, const EditScript& script) {
  ScriptRun run;
  const std::uint64_t idsBefore =
      obs::FlightRecorder::instance().lastDecisionId();
  browser::Page& tab = stack.browser.openTab(std::string(kNotesOrigin) + "/n/1");
  cloud::NotesClient notes(tab, "n1");
  notes.openNote();
  const auto allowed = [&](int status) {
    run.allowedSaves.emplace_back(status, stack.lastResponse.last);
  };
  // Each edit auto-saves the whole note; every fifth step also rewrites an
  // earlier paragraph.
  for (std::size_t i = 0; i < script.clean.size(); ++i) {
    stack.lastResponse.last = {-1, ""};
    allowed(notes.appendParagraph(script.clean[i]));
    if (i % 5 == 4) {
      stack.lastResponse.last = {-1, ""};
      allowed(notes.setParagraph(i / 2, script.clean[i - 1]));
    }
  }

  // The evaluation becomes Interview Tool data, then is pasted into the
  // note: the save is blocked.
  stack.plugin.observeServiceDocument(kItoolOrigin,
                                      std::string(kItoolOrigin) + "/eval/9",
                                      script.evaluation);
  const std::uint64_t beforeBlocked =
      obs::FlightRecorder::instance().lastDecisionId();
  run.blockedStatus = notes.appendParagraph(script.evaluation);
  run.blockedRecords = recordsSince(beforeBlocked);

  // Deleting the paste makes the note clean again.
  stack.lastResponse.last = {-1, ""};
  allowed(notes.deleteParagraph(notes.paragraphCount() - 1));

  const std::uint64_t idsAfter =
      obs::FlightRecorder::instance().lastDecisionId();
  for (const auto& record : recordsSince(idsBefore)) {
    run.verdicts.emplace_back(record.segmentName, record.action);
  }
  EXPECT_EQ(run.verdicts.size(), idsAfter - idsBefore)
      << "every decision of the run is retained, none evicted";
  return run;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest()
      : rng_(99),
        gen_(&rng_),
        faulty_(cloud::FaultConfig::uniformRate(kFaultRate)) {
    // Provenance acceptance: sample every trace and widen the ring so the
    // sweeps below see every decision, even with other suites sharing the
    // process ring.
    savedSampleEvery_ = obs::traceSampleEvery();
    obs::setTraceSampleEvery(1);
    obs::FlightRecorder::instance().setCapacity(4096);
  }

  ~ChaosTest() override {
    obs::setTraceSampleEvery(savedSampleEvery_);
    obs::FlightRecorder::instance().setCapacity(
        obs::FlightRecorder::kDefaultCapacity);
  }

  util::Rng rng_;
  corpus::TextGenerator gen_;
  NotesStack faulty_;
  std::uint32_t savedSampleEvery_ = 16;
};

TEST_F(ChaosTest, AllowedUploadsLandBlockedUploadsNever) {
  const EditScript script = makeScript(/*seed=*/7);
  NotesStack clean(cloud::FaultConfig{});
  const ScriptRun reference = runScript(clean, script);
  const testutil::CounterDelta faults;
  const ScriptRun chaos = runScript(faulty_, script);

  // 1. Faults sit after the verdict: the same decisions, in the same order.
  EXPECT_GT(faults("bf_fault_injected_total"), 0u)
      << "a 24% fault rate over 30+ uploads must actually inject faults";
  ASSERT_FALSE(reference.verdicts.empty());
  EXPECT_EQ(chaos.verdicts, reference.verdicts);
  std::size_t blocks = 0;
  for (const auto& verdict : chaos.verdicts) {
    if (verdict.second == "block") ++blocks;
  }
  EXPECT_GE(blocks, 1u) << "the script must block at least once";

  // 2. Allowed saves: 200 without faults; under faults 200 or the fault
  //    itself (a 503, or status 0 with a fault body), never a policy 403.
  ASSERT_EQ(chaos.allowedSaves.size(), reference.allowedSaves.size());
  for (const auto& [status, response] : reference.allowedSaves) {
    EXPECT_EQ(status, 200);
  }
  for (const auto& [status, response] : chaos.allowedSaves) {
    EXPECT_TRUE(landedOrFaulted(status, response))
        << "allowed save saw " << status << " \"" << response.body << "\"";
  }

  // 3. Safety: the paste is a policy block, and its text appears in NO
  //    request body the network ever saw (the injector sits behind the
  //    plug-in, so even faulted requests are policy-clean). Match on a
  //    marker substring to sidestep JSON escaping of the full paragraph.
  EXPECT_EQ(reference.blockedStatus, 403);
  EXPECT_EQ(chaos.blockedStatus, 403) << "policy block, not a transport fault";
  const std::string marker = script.evaluation.substr(0, 24);
  for (const auto& entry : faulty_.network.log()) {
    EXPECT_EQ(entry.request.body.find(marker), std::string::npos)
        << "sensitive text leaked into the network log";
  }

  // 4. Once the faults stop, one more save brings the backend in line with
  //    the editor.
  faulty_.faultNet.setDefaults({});
  browser::Page& tab = *faulty_.browser.tabs().back();
  cloud::NotesClient notes(tab, "n1");
  EXPECT_EQ(notes.save(), 200);
  EXPECT_EQ(faulty_.notesBackend.noteText("n1"), notes.noteText());
  EXPECT_EQ(notes.noteText(), clean.notesBackend.noteText("n1"));

  // 5. Explainability: every blocked decision resolves in the flight
  //    recorder to a complete causal record, and its trace id is in the
  //    JSON export that scripts/bf_explain.py --trace filters on.
  const std::string flightJson = obs::toJson(obs::FlightRecorder::instance());
  std::size_t blocked = 0;
  for (const auto& record : chaos.blockedRecords) {
    if (!record.violation) continue;
    ++blocked;
    const auto explained =
        obs::FlightRecorder::instance().explain(record.decisionId);
    ASSERT_TRUE(explained.has_value());
    EXPECT_NE(explained->traceId, 0u) << "blocked decision missing its trace";
    EXPECT_FALSE(explained->ingress.empty());
    EXPECT_EQ(explained->action, "block");
    EXPECT_GT(explained->stages.total(), 0u)
        << "blocked decision carries no per-stage attribution";
    EXPECT_FALSE(explained->hits.empty() && explained->violatingTags.empty())
        << "a block must name what it matched";
    EXPECT_NE(flightJson.find("\"trace_id\":" +
                              std::to_string(explained->traceId) + ","),
              std::string::npos);
  }
  EXPECT_GE(blocked, 1u) << "the blocked paste must be in the recorder";
}

TEST_F(ChaosTest, ExportsCarryNoCorpusPlaintext) {
  // Full run: clean edits are saved (or meet a fault), a sensitive upload
  // is blocked — then every observability export (Prometheus text and
  // flight-recorder JSON) is swept for corpus plaintext. The sec type
  // layer plus scripts/bftaint.py claim raw content cannot reach these
  // sinks; this test is the runtime witness of that claim.
  browser::Page& tab =
      faulty_.browser.openTab(std::string(kNotesOrigin) + "/n/3");
  cloud::NotesClient notes(tab, "n3");
  notes.openNote();

  std::vector<std::string> corpusTexts;
  for (int i = 0; i < 8; ++i) {
    corpusTexts.push_back(gen_.paragraph(5, 7));
    faulty_.lastResponse.last = {-1, ""};
    const int status = notes.appendParagraph(corpusTexts.back());
    EXPECT_TRUE(landedOrFaulted(status, faulty_.lastResponse.last)) << status;
  }
  const std::string evaluation = gen_.paragraph(7, 9);
  corpusTexts.push_back(evaluation);
  faulty_.plugin.observeServiceDocument(
      kItoolOrigin, std::string(kItoolOrigin) + "/eval/3", evaluation);
  EXPECT_EQ(notes.appendParagraph(evaluation), 403);

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const std::string exports[] = {
      obs::toPrometheusText(snap),
      obs::toJson(obs::FlightRecorder::instance()),
  };
  // No 24-char window of any corpus paragraph may appear in any export.
  // Windows step by 8 so a leak of any aligned or unaligned substring of
  // meaningful length is caught.
  for (const std::string& text : corpusTexts) {
    for (std::size_t off = 0; off + 24 <= text.size(); off += 8) {
      const std::string window = text.substr(off, 24);
      for (const std::string& out : exports) {
        ASSERT_EQ(out.find(window), std::string::npos)
            << "corpus plaintext leaked into an export: \"" << window
            << "\"";
      }
    }
  }

  // Positive check: the blocked decision's flight record carries a
  // REDACTED preview (ellipsis + char count), so the exports are scrubbed
  // because of redaction, not because previews are missing entirely.
  const std::string& flightJson = exports[1];
  EXPECT_NE(flightJson.find("content_preview"), std::string::npos);
  EXPECT_NE(flightJson.find("chars)"), std::string::npos);
}

}  // namespace
}  // namespace bf
