// Fuzz-style robustness smoke tests: seeded random and adversarial inputs
// into every parser/deserializer. The contract everywhere is "reject with
// an error, never crash or hang".
#include <gtest/gtest.h>

#include "browser/html_parser.h"
#include "browser/readability.h"
#include "flow/snapshot.h"
#include "text/normalizer.h"
#include "text/winnower.h"
#include "util/json_text.h"
#include "util/rng.h"

namespace bf {
namespace {

std::string randomBytes(util::Rng& rng, std::size_t n) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.uniform(0, 255)));
  }
  return s;
}

std::string randomHtmlish(util::Rng& rng, std::size_t n) {
  static const char* kPieces[] = {"<",    ">",     "</",   "/>",  "<div",
                                  "<p>",  "</p>",  "=",    "\"",  "'",
                                  "<!--", "-->",   "<!",   "a b", "name=",
                                  "<form","<input"};
  std::string s;
  while (s.size() < n) {
    s += kPieces[rng.uniform(0, std::size(kPieces) - 1)];
    if (rng.chance(0.3)) s += randomBytes(rng, rng.uniform(1, 5));
  }
  return s;
}

TEST(FuzzSmoke, HtmlParserSurvivesGarbage) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    browser::Document doc;
    browser::parseHtml(doc, randomBytes(rng, 500));
    browser::parseHtml(doc, randomHtmlish(rng, 500));
    // The resulting tree must still be walkable.
    (void)doc.root()->textContent();
    (void)browser::extractMainText(*doc.root());
  }
}

TEST(FuzzSmoke, HtmlParserPathologicalNesting) {
  browser::Document doc;
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += "<div>";
  deep += "core";
  browser::parseHtml(doc, deep);  // unclosed 500-deep nesting
  EXPECT_NE(doc.root()->textContent().find("core"), std::string::npos);
}

TEST(FuzzSmoke, JsonScannerSurvivesGarbage) {
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    (void)util::scanJsonStringFields(randomBytes(rng, 300));
    (void)util::unescapeJsonString(randomBytes(rng, 100));
  }
  // Adversarial backslash runs.
  (void)util::scanJsonStringFields("{\"k\": \"\\\\\\\\\\\"}");
  (void)util::unescapeJsonString("\\\\\\u12");
  (void)util::unescapeJsonString("\\");
}

TEST(FuzzSmoke, FingerprintingSurvivesArbitraryBytes) {
  util::Rng rng(3);
  const text::FingerprintConfig config;
  for (int i = 0; i < 30; ++i) {
    const auto fp = text::fingerprintText(randomBytes(rng, 2000), config);
    for (const auto& g : fp.grams()) {
      EXPECT_LE(g.hash, 0xffffffffULL);  // 32-bit config respected
    }
  }
}

TEST(FuzzSmoke, SnapshotImportSurvivesCorruption) {
  util::Rng rng(4);
  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  tracker.observeSegment(flow::SegmentKind::kParagraph, "a#p0", "a", "s",
                         std::string(200, 'x') + "varied content here with "
                         "enough length to produce a fingerprint for sure");
  std::string blob = flow::exportState(tracker);

  // Random single-byte corruptions: each import must either succeed (the
  // byte was in unused padding — impossible here, so: ) or fail cleanly.
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = blob;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform(0, corrupted.size() - 1));
    corrupted[pos] = static_cast<char>(rng.uniform(0, 255));
    util::LogicalClock clock2;
    flow::FlowTracker restored(flow::TrackerConfig{}, &clock2);
    (void)flow::importState(restored, corrupted);  // must not crash
  }
  // Random truncations.
  for (int trial = 0; trial < 30; ++trial) {
    std::string truncated = blob.substr(
        0, static_cast<std::size_t>(rng.uniform(0, blob.size())));
    util::LogicalClock clock2;
    flow::FlowTracker restored(flow::TrackerConfig{}, &clock2);
    (void)flow::importState(restored, truncated);
  }
  // Pure noise.
  for (int trial = 0; trial < 30; ++trial) {
    util::LogicalClock clock2;
    flow::FlowTracker restored(flow::TrackerConfig{}, &clock2);
    EXPECT_FALSE(
        flow::importState(restored, randomBytes(rng, 400)).ok());
  }
}

TEST(FuzzSmoke, NormalizerIdentityOnRandomAscii) {
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::string s;
    for (int k = 0; k < 200; ++k) {
      s.push_back(static_cast<char>(rng.uniform(32, 126)));
    }
    const auto norm = text::normalize(s);
    // Every kept byte maps back into the source.
    for (std::size_t k = 0; k < norm.size(); ++k) {
      ASSERT_LT(norm.originalOffset[k], s.size());
    }
  }
}

}  // namespace
}  // namespace bf
