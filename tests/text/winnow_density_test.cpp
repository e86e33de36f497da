// Property sweep: winnowing fingerprint density. The winnowing paper
// proves expected density 2/(w+1) for random input, where w is the number
// of hashes per window; the fingerprint size drives both memory and
// disclosure-metric resolution, so the implementation must stay close.
#include <gtest/gtest.h>

#include "text/winnower.h"
#include "util/rng.h"

namespace bf::text {
namespace {

class WinnowDensity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(WinnowDensity, MatchesTheoreticalDensity) {
  const auto [ngram, window] = GetParam();
  FingerprintConfig config;
  config.ngramChars = ngram;
  config.windowChars = window;

  util::Rng rng(ngram * 7919 + window);
  std::string text;
  const std::size_t n = 60000;
  text.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    text.push_back(static_cast<char>('a' + rng.uniform(0, 25)));
  }

  const Fingerprint fp = fingerprintText(text, config);
  const double w = static_cast<double>(config.windowHashes());
  const double expected = 2.0 / (w + 1.0);
  const double actual = static_cast<double>(fp.grams().size()) /
                        static_cast<double>(n - ngram + 1);
  // Robust winnowing's tie-break lowers density slightly below 2/(w+1);
  // allow 25% relative slack either way.
  EXPECT_GT(actual, expected * 0.75)
      << "density " << actual << " vs expected " << expected;
  EXPECT_LT(actual, expected * 1.25)
      << "density " << actual << " vs expected " << expected;
}

INSTANTIATE_TEST_SUITE_P(
    WindowSweep, WinnowDensity,
    ::testing::Values(std::make_tuple(8, 16), std::make_tuple(15, 30),
                      std::make_tuple(15, 45), std::make_tuple(15, 60),
                      std::make_tuple(20, 80), std::make_tuple(30, 60)));

}  // namespace
}  // namespace bf::text
