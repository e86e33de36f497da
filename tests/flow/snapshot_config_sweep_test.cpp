// Property sweep: snapshot round-trips must preserve query behaviour under
// every fingerprint configuration (the blob embeds raw grams, so config
// mismatches would silently corrupt results — the tracker must be
// reconstructed with the same config, and with it, agree exactly).
#include <gtest/gtest.h>

#include "corpus/text_generator.h"
#include "flow/snapshot.h"

namespace bf::flow {
namespace {

class SnapshotConfigSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 double>> {};

TEST_P(SnapshotConfigSweep, RoundTripAgreesUnderConfig) {
  const auto [ngram, window, tpar] = GetParam();
  TrackerConfig config;
  config.fingerprint.ngramChars = ngram;
  config.fingerprint.windowChars = window;
  config.defaultParagraphThreshold = tpar;

  util::LogicalClock clock;
  FlowTracker tracker(config, &clock);
  util::Rng rng(ngram + window * 3 + static_cast<std::uint64_t>(tpar * 7));
  corpus::TextGenerator gen(&rng);

  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i) {
    texts.push_back(gen.paragraph(6, 8));
    const std::string id = std::to_string(i);
    tracker.observeSegment(SegmentKind::kParagraph, "s" + id + "#p0",
                           "d" + id, "svc", texts.back());
  }

  util::LogicalClock clock2;
  FlowTracker restored(config, &clock2);
  const auto maxTs = importState(restored, exportState(tracker));
  ASSERT_TRUE(maxTs.ok()) << maxTs.errorMessage();
  clock2.advanceTo(maxTs.value().maxTimestamp + 1);

  for (const auto& probe : texts) {
    const auto a = tracker.checkText(probe, "elsewhere");
    const auto b = restored.checkText(probe, "elsewhere");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].sourceName, b[k].sourceName);
      EXPECT_DOUBLE_EQ(a[k].score, b[k].score);
      EXPECT_EQ(a[k].overlap, b[k].overlap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, SnapshotConfigSweep,
    ::testing::Values(std::make_tuple(8, 16, 0.5),
                      std::make_tuple(15, 30, 0.0),
                      std::make_tuple(15, 30, 0.5),
                      std::make_tuple(15, 45, 0.8),
                      std::make_tuple(25, 50, 0.5)));

}  // namespace
}  // namespace bf::flow
