// Enterprise deployment: persistence and service adapters.
//
// A realistic IT-department setup across two "days":
//  - day 1: the fingerprint database is built up from internal content and
//    saved to disk, encrypted at rest (paper S4.4's recommendation);
//  - day 2: a fresh BrowserFlow instance restores the snapshot and keeps
//    enforcing — including against a JSON-API service supported through a
//    registered service adapter (S4.4's "service-specific transformation").
//
// Run: ./build/examples/enterprise_deployment

#include <cstdio>

#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "core/deployment.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"

namespace {

constexpr const char* kSnapshotPath = "/tmp/browserflow-example.snapshot";
constexpr const char* kOrgSecret = "example-org-secret";

bf::core::BrowserFlowConfig blockConfig() {
  bf::core::BrowserFlowConfig c;
  c.mode = bf::core::EnforcementMode::kBlock;
  return c;
}

// Adapters are code, not data: they are registered at startup either way.
void configureAdapters(bf::core::BrowserFlowPlugin& plugin) {
  plugin.registerServiceAdapter(
      "https://notes.example",
      std::make_unique<bf::core::JsonFieldAdapter>(
          std::vector<std::string>{"note_text"}));
}

}  // namespace

int main() {
  using namespace bf;

  util::Rng rng(88);
  corpus::TextGenerator gen(&rng);
  const std::string forecast =
      "Confidential revenue forecast: the enterprise segment is projected "
      "to grow twenty eight percent next quarter, driven by the renewal "
      "pipeline and two pending eight figure expansion deals.";

  // ---- Day 1: build the database and snapshot it, encrypted. ------------------
  {
    util::LogicalClock clock;
    core::BrowserFlowPlugin plugin(blockConfig(), &clock);
    configureAdapters(plugin);
    plugin.policy().services().upsert({"https://finance.corp", "Finance Tool",
                                       tdm::TagSet{"fin"},
                                       tdm::TagSet{"fin"}});
    plugin.observeServiceDocument("https://finance.corp",
                                  "https://finance.corp/forecast", forecast);
    for (int i = 0; i < 20; ++i) {
      plugin.observeServiceDocument(
          "https://finance.corp",
          "https://finance.corp/doc" + std::to_string(i), gen.paragraph(6, 9));
    }
    const auto st = core::saveDeployment(plugin, kSnapshotPath, kOrgSecret);
    std::printf("day 1: tracked %zu segments, deployment saved: %s\n",
                plugin.tracker().segmentDb().size(),
                st.ok() ? "ok (encrypted)" : st.errorMessage().c_str());
  }

  // ---- Day 2: a fresh instance restores everything — fingerprints, labels,
  // ---- service policy, audit trail — from the one encrypted file. -------------
  util::LogicalClock clock;
  core::BrowserFlowPlugin plugin(blockConfig(), &clock);
  configureAdapters(plugin);
  const auto restored = core::loadDeployment(plugin, kSnapshotPath, kOrgSecret);
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.errorMessage().c_str());
    return 1;
  }
  clock.advanceTo(restored.value() + 1);
  std::printf("day 2: restored %zu segments, %zu distinct hashes, "
              "%zu services, %zu labels\n",
              plugin.tracker().segmentDb().size(),
              plugin.tracker().hashDb().distinctHashCount(
                  flow::SegmentKind::kParagraph),
              plugin.policy().services().size(),
              plugin.policy().allLabels().size());

  util::Rng rng2(89);
  cloud::SimNetwork network(&rng2);
  cloud::FormBackend notesBackend;
  network.registerService("https://notes.example", &notesBackend);
  browser::Browser browser(&network);
  browser.addExtension(&plugin);

  browser::Page& tab = browser.openTab("https://notes.example/app");
  auto post = [&](const std::string& text) {
    browser::Xhr xhr = tab.newXhr();
    xhr.open("POST", "https://notes.example/api/notes");
    xhr.setRequestHeader("content-type", "application/json");
    return xhr.send(std::string(R"({"note_text": ")") + text + "\"}").status;
  };

  const int blocked = post(forecast);
  std::printf("day 2: paste restored-forecast into JSON notes API -> HTTP %d "
              "(%s)\n",
              blocked, blocked == 403 ? "BLOCKED" : "allowed");
  const int allowed = post("Reminder: all-hands meeting moved to Thursday.");
  std::printf("day 2: innocuous note -> HTTP %d (%s)\n", allowed,
              allowed == 200 ? "allowed" : "blocked");

  std::remove(kSnapshotPath);
  return (blocked == 403 && allowed == 200) ? 0 : 1;
}
