// bfscan: an offline scanner for incident response and audits.
//
// Given a saved deployment (fingerprints + policy) and a text, reports
// which tracked sources the text discloses, with scores, labels and the
// implicated source passages — the investigative counterpart of the
// in-browser advisory flow.
//
// Usage:
//   bfscan <deployment-file> <org-secret> <text-file> [service-id]
//   bfscan --demo            # self-contained demonstration
//
// Exit code: 0 = no disclosure, 2 = disclosure found, 1 = usage/errors.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/deployment.h"
#include "corpus/text_generator.h"
#include "text/segmenter.h"

namespace {

using namespace bf;

int scanText(core::BrowserFlowPlugin& plugin, const std::string& text,
             const std::string& serviceId) {
  bool anyDisclosure = false;
  const auto paragraphs = text::segmentParagraphs(text);
  std::printf("scanning %zu paragraph(s)%s\n", paragraphs.size(),
              serviceId.empty()
                  ? ""
                  : (" for upload to " + serviceId).c_str());

  for (const auto& para : paragraphs) {
    const auto hits = plugin.tracker().checkText(para.text, "bfscan-input");
    if (hits.empty()) continue;
    anyDisclosure = true;
    std::printf("\nparagraph %zu discloses:\n", para.index);
    for (const auto& hit : hits) {
      std::printf("  %-40s D=%.2f (threshold %.2f) service=%s\n",
                  hit.sourceName.c_str(), hit.score, hit.threshold,
                  hit.sourceService.c_str());
      const tdm::Label* label = plugin.policy().labelOf(hit.sourceName);
      if (label != nullptr) {
        std::printf("    label: %s\n", label->toString().c_str());
      }
      const auto ranges = plugin.tracker().attributeDisclosure(
          hit.source, plugin.tracker().fingerprintOf(para.text));
      for (const auto& [b, e] : ranges) {
        std::printf("    source bytes [%zu, %zu)\n", b, e);
      }
    }
  }

  // Exact-match secrets.
  for (const auto& hit : plugin.secretGuard().scan(text)) {
    anyDisclosure = true;
    std::printf("\ncontains registered secret: %s (tag %s)\n",
                hit.name.c_str(), hit.tag.c_str());
  }

  if (!serviceId.empty()) {
    // The same probe the plug-in runs on an XHR upload: every paragraph
    // and, for a multi-paragraph text, the whole text.
    core::DecisionRequest probe;
    probe.segmentName = "bfscan-input/upload";
    probe.documentName = "bfscan-input";
    probe.serviceId = serviceId;
    probe.text = text;
    probe.requestKind = core::RequestKind::kProbe;
    probe.ingress = "bfscan";
    const core::Decision d = plugin.engine().decideText(probe);
    std::printf("\nupload to %s: %s\n", serviceId.c_str(),
                d.violation() ? "VIOLATION" : "allowed");
    for (const auto& tag : d.violatingTags) {
      std::printf("  violating tag: %s\n", tag.c_str());
    }
  }

  std::printf("\nresult: %s\n",
              anyDisclosure ? "DISCLOSURE FOUND" : "clean");
  return anyDisclosure ? 2 : 0;
}

int runDemo() {
  std::printf("--- bfscan demo (no deployment file given) ---\n");
  util::LogicalClock clock;
  core::BrowserFlowPlugin plugin(core::BrowserFlowConfig{}, &clock);
  plugin.policy().services().upsert({"hr", "HR Tool", tdm::TagSet{"hr"},
                                     tdm::TagSet{"hr"}});
  util::Rng rng(1);
  corpus::TextGenerator gen(&rng);
  const std::string sensitive = gen.paragraph(7, 9);
  plugin.observeServiceDocument("hr", "hr/salaries", sensitive);
  plugin.secretGuard().addSecret("vpn-password", "correct horse battery",
                                 "vpn");

  const std::string input = gen.paragraph(5, 7) + "\n\n" + sensitive +
                            "\n\nremember the vpn uses CorrectHorseBattery.";
  const int rc = scanText(plugin, input, "https://pastebin.example");
  return rc == 2 ? 0 : 1;  // demo expects to find the planted disclosure
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--demo") return runDemo();
  if (argc == 1) return runDemo();
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: bfscan <deployment-file> <org-secret> <text-file> "
                 "[service-id]\n       bfscan --demo\n");
    return 1;
  }

  util::LogicalClock clock;
  core::BrowserFlowPlugin plugin(core::BrowserFlowConfig{}, &clock);
  const auto restored = core::loadDeployment(plugin, argv[1], argv[2]);
  if (!restored.ok()) {
    std::fprintf(stderr, "cannot load deployment: %s\n",
                 restored.errorMessage().c_str());
    return 1;
  }
  clock.advanceTo(restored.value() + 1);

  std::ifstream in(argv[3]);
  if (!in) {
    std::fprintf(stderr, "cannot open text file: %s\n", argv[3]);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return scanText(plugin, buffer.str(), argc > 4 ? argv[4] : "");
}
