// Tests for the network-DLP baseline appliance.
#include <gtest/gtest.h>

#include "browser/forms.h"
#include "cloud/dlp_appliance.h"
#include "corpus/text_generator.h"
#include "counter_delta.h"

namespace bf::cloud {
namespace {

class CountingSink final : public browser::RequestSink {
 public:
  browser::HttpResponse handle(const browser::HttpRequest&) override {
    ++count;
    return {200, "ok"};
  }
  int count = 0;
};

class DlpApplianceTest : public ::testing::Test {
 protected:
  DlpApplianceTest() : rng_(5), gen_(&rng_) {}
  util::Rng rng_;
  corpus::TextGenerator gen_;
};

TEST_F(DlpApplianceTest, ExactChunksDetectVerbatim) {
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kExactChunks;
  DlpAppliance dlp(nullptr, cfg);
  const std::string doc = gen_.paragraph(6, 8);
  dlp.registerSensitiveDocument(doc);
  EXPECT_TRUE(dlp.inspectText(doc));
  EXPECT_TRUE(dlp.inspectText("prefix " + doc + " suffix"));
  EXPECT_FALSE(dlp.inspectText(gen_.paragraph(6, 8)));
}

TEST_F(DlpApplianceTest, ExactChunksMatchAnyAlignment) {
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kExactChunks;
  DlpAppliance dlp(nullptr, cfg);
  const std::string doc = gen_.paragraph(8, 10);
  dlp.registerSensitiveDocument(doc);
  // A mid-document excerpt, shifted arbitrarily.
  EXPECT_TRUE(dlp.inspectText("x " + doc.substr(37, 200)));
}

TEST_F(DlpApplianceTest, ExactChunksNormalize) {
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kExactChunks;
  DlpAppliance dlp(nullptr, cfg);
  const std::string doc = gen_.paragraph(6, 8);
  dlp.registerSensitiveDocument(doc);
  std::string shouty = doc;
  for (char& c : shouty) c = static_cast<char>(std::toupper(c));
  EXPECT_TRUE(dlp.inspectText(shouty));
}

TEST_F(DlpApplianceTest, FingerprintModeThreshold) {
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kFingerprint;
  cfg.threshold = 0.5;
  DlpAppliance dlp(nullptr, cfg);
  const std::string doc = gen_.paragraph(8, 10);
  dlp.registerSensitiveDocument(doc);
  EXPECT_TRUE(dlp.inspectText(doc));
  // A small slice stays below 50% containment.
  EXPECT_FALSE(dlp.inspectText(doc.substr(0, 70)));
  EXPECT_FALSE(dlp.inspectText(gen_.paragraph(8, 10)));
}

TEST_F(DlpApplianceTest, HandleInspectsAndForwards) {
  CountingSink sink;
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kExactChunks;
  DlpAppliance dlp(&sink, cfg);
  const std::string doc = gen_.paragraph(6, 8);
  dlp.registerSensitiveDocument(doc);
  const testutil::CounterDelta delta;

  browser::HttpRequest leak;
  leak.url = "https://x.example/post";
  leak.body = "content=" + browser::urlEncodeComponent(doc);
  EXPECT_EQ(dlp.handle(leak).status, 200);
  EXPECT_EQ(sink.count, 1);  // baseline is advisory: traffic still flows
  EXPECT_EQ(delta("bf_dlp_flagged_total"), 1u);

  browser::HttpRequest clean;
  clean.url = "https://x.example/post";
  clean.body = "content=" + browser::urlEncodeComponent(gen_.paragraph(6, 8));
  dlp.handle(clean);
  EXPECT_EQ(delta("bf_dlp_flagged_total"), 1u);
  EXPECT_EQ(delta("bf_dlp_inspected_total"), 2u);
}

TEST_F(DlpApplianceTest, TlsTrafficIsOpaque) {
  CountingSink sink;
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kExactChunks;
  cfg.trafficEncrypted = true;
  DlpAppliance dlp(&sink, cfg);
  const std::string doc = gen_.paragraph(6, 8);
  dlp.registerSensitiveDocument(doc);
  browser::HttpRequest leak;
  leak.body = "content=" + browser::urlEncodeComponent(doc);
  const testutil::CounterDelta delta;
  dlp.handle(leak);
  EXPECT_EQ(delta("bf_dlp_inspected_total"), 1u);
  EXPECT_EQ(delta("bf_dlp_flagged_total"), 0u)
      << "appliance must be blind to TLS";
  EXPECT_EQ(sink.count, 1);
}

TEST_F(DlpApplianceTest, ShortDocumentsIgnoredByChunker) {
  DlpAppliance::Config cfg;
  cfg.mode = DlpAppliance::Mode::kExactChunks;
  DlpAppliance dlp(nullptr, cfg);
  dlp.registerSensitiveDocument("too short");
  EXPECT_FALSE(dlp.inspectText("too short"));
}

TEST_F(DlpApplianceTest, AppliancesShareTheRegistryCounters) {
  // The counts are process-wide: a phase reads what every appliance did in
  // it, and a new phase starts from zero.
  CountingSink sink;
  DlpAppliance first(&sink, DlpAppliance::Config{});
  DlpAppliance second(&sink, DlpAppliance::Config{});
  browser::HttpRequest req;
  req.body = "a=b";
  testutil::CounterDelta delta;
  first.handle(req);
  second.handle(req);
  EXPECT_EQ(delta("bf_dlp_inspected_total"), 2u);
  delta.restart();
  EXPECT_EQ(delta("bf_dlp_inspected_total"), 0u);
  EXPECT_EQ(delta("bf_dlp_flagged_total"), 0u);
}

}  // namespace
}  // namespace bf::cloud
