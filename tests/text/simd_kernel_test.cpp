// Differential sweep for the runtime-dispatched SIMD fingerprint kernel
// (text/simd/kernel.h): every dispatch tier this host supports must be
// bit-identical to fingerprintTextReference — same hashes AND same
// original-offset positions — across input lengths around the window
// boundary, all 64 input alignments, tie-heavy periodic text, and
// multi-byte UTF-8 content. Plus unit tests for the pure selection policy
// (chooseKernelTier) and the bf_kernel_dispatch gauge contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "obs/metrics.h"
#include "text/fingerprint_kernel.h"
#include "text/simd/kernel.h"
#include "text/winnower.h"
#include "util/rng.h"

namespace bf::text {
namespace {

using simd::KernelTier;

/// Forces one dispatch tier for the scope of a test body and always
/// returns dispatch to auto on exit, even through ASSERT failures.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier tier)
      : engaged_(simd::setKernelTierOverrideForTest(tier)) {}
  ~ScopedTier() { simd::restoreAutoKernelTier(); }
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }

 private:
  bool engaged_;
};

const std::vector<KernelTier>& allTiers() {
  static const std::vector<KernelTier> tiers = {KernelTier::kScalar,
                                                KernelTier::kAvx512};
  return tiers;
}

void expectIdentical(const Fingerprint& got, const Fingerprint& ref,
                     const std::string& label) {
  EXPECT_EQ(got.hashes(), ref.hashes()) << label;
  ASSERT_EQ(got.grams().size(), ref.grams().size()) << label;
  for (std::size_t i = 0; i < ref.grams().size(); ++i) {
    ASSERT_EQ(got.grams()[i].hash, ref.grams()[i].hash)
        << label << " gram " << i;
    ASSERT_EQ(got.grams()[i].pos, ref.grams()[i].pos)
        << label << " gram " << i;
  }
}

/// Runs the currently-dispatched fused kernel on `input` and checks it
/// against the staged reference pipeline.
void checkAgainstReference(std::string_view input,
                           const FingerprintConfig& config,
                           const std::string& label) {
  FingerprintWorkspace ws;
  const Fingerprint got = fingerprintTextFused(input, config, ws);
  const Fingerprint ref = fingerprintTextReference(input, config);
  expectIdentical(got, ref, label);
}

std::string mixedText(util::Rng& rng, std::size_t length) {
  // Letters, digits, punctuation, whitespace, and raw high bytes: every
  // normalizer classification, including bytes the SIMD compaction drops.
  static const char pool[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      " \t\n.,;:!?-_()[]{}'\"";
  std::string s;
  s.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.uniform(0, 19) == 0) {
      s.push_back(static_cast<char>(0x80 + rng.uniform(0, 0x7e)));
    } else {
      s.push_back(pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(sizeof(pool)) - 2))]);
    }
  }
  return s;
}

std::string utf8Text() {
  // Two-, three-, and four-byte sequences interleaved with ASCII so the
  // vector normalize sees continuation bytes in every lane position.
  std::string s;
  for (int i = 0; i < 40; ++i) {
    s += "caf\xC3\xA9 na\xC3\xAFve ";          // U+00E9, U+00EF
    s += "\xE6\xBC\xA2\xE5\xAD\x97 ";          // CJK
    s += "\xF0\x9F\x94\x92 secret";            // U+1F512
    s += std::to_string(i);
    s += "\n";
  }
  return s;
}

TEST(SimdKernelDifferential, LengthSweepAroundWindowBoundary) {
  const FingerprintConfig config;  // paper defaults: 15/30, 32-bit
  util::Rng rng(101);
  // One long random text; prefixes give every length 0..3*window without
  // re-generating (prefix normalization is prefix-stable).
  const std::string text = mixedText(rng, 3 * config.windowChars + 1);
  for (KernelTier tier : allTiers()) {
    ScopedTier scoped(tier);
    if (!scoped.engaged()) {
      GTEST_LOG_(INFO) << "tier " << simd::kernelTierName(tier)
                       << " unsupported on this host; skipping";
      continue;
    }
    for (std::size_t len = 0; len <= 3 * config.windowChars; ++len) {
      checkAgainstReference(
          std::string_view(text).substr(0, len), config,
          std::string("tier ") + simd::kernelTierName(tier) + " len " +
              std::to_string(len));
    }
  }
}

TEST(SimdKernelDifferential, AllInputAlignments) {
  // The same logical text placed at every offset 0..63 of an oversized
  // buffer: catches head/tail masking bugs in the vector loads.
  const FingerprintConfig config;
  util::Rng rng(202);
  const std::string logical = mixedText(rng, 512);
  std::string buffer(64 + logical.size(), '\0');
  const Fingerprint ref = fingerprintTextReference(logical, config);
  for (KernelTier tier : allTiers()) {
    ScopedTier scoped(tier);
    if (!scoped.engaged()) continue;
    FingerprintWorkspace ws;
    for (std::size_t offset = 0; offset < 64; ++offset) {
      std::copy(logical.begin(), logical.end(), buffer.begin() + offset);
      const std::string_view view(buffer.data() + offset, logical.size());
      const Fingerprint got = fingerprintTextFused(view, config, ws);
      expectIdentical(got, ref,
                      std::string("tier ") + simd::kernelTierName(tier) +
                          " offset " + std::to_string(offset));
    }
  }
}

/// Text whose windows hold many equal gram hashes: runs of a short random
/// pattern (every gram at the same phase of a run hashes alike) of random
/// length, each broken by a random letter and sometimes a space, so the
/// ties fall at every lane of the vector winnow, in whole blocks and in
/// the scalar head and tail, and across chunk boundaries.
std::string tieHeavyText(util::Rng& rng, std::size_t length) {
  std::string s;
  while (s.size() < length) {
    std::string unit(rng.uniform(1, 20), 'a');
    for (char& c : unit) c = static_cast<char>('a' + rng.uniform(0, 25));
    const std::size_t run = rng.uniform(20, 400);
    for (std::size_t i = 0; i < run; ++i) s.push_back(unit[i % unit.size()]);
    if (rng.uniform(0, 1) == 0) s.push_back(' ');
    s.push_back(static_cast<char>('a' + rng.uniform(0, 25)));
  }
  s.resize(length);
  return s;
}

TEST(SimdKernelDifferential, TieHeavyText) {
  // Three chunks of the batch kernel per text; w = 16 (the paper's) and
  // w = 32 both take the in-register block winnow.
  util::Rng rng(303);
  FingerprintConfig wide;
  wide.ngramChars = 5;
  wide.windowChars = 36;  // w = 32
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) texts.push_back(tieHeavyText(rng, 20000));
  for (KernelTier tier : allTiers()) {
    ScopedTier scoped(tier);
    if (!scoped.engaged()) continue;
    for (const FingerprintConfig& config : {FingerprintConfig{}, wide}) {
      for (std::size_t i = 0; i < texts.size(); ++i) {
        checkAgainstReference(
            texts[i], config,
            std::string("tier ") + simd::kernelTierName(tier) + " w=" +
                std::to_string(config.windowHashes()) + " text " +
                std::to_string(i));
      }
    }
  }
}

TEST(SimdKernelDifferential, MultiByteUtf8Content) {
  const FingerprintConfig config;
  const std::string text = utf8Text();
  for (KernelTier tier : allTiers()) {
    ScopedTier scoped(tier);
    if (!scoped.engaged()) continue;
    checkAgainstReference(text, config, std::string("tier ") +
                                            simd::kernelTierName(tier) +
                                            " utf8");
  }
}

TEST(SimdKernelDifferential, Utf8SequencesStraddlingLaneBoundaries) {
  // A multi-byte UTF-8 sequence split across a vector-load boundary is the
  // nastiest case for the SIMD normalize/compaction path: the lead byte is
  // classified in one 16/32/64-byte round and its continuation bytes in
  // the next. Place each sequence so it straddles every lane boundary at
  // every possible split point, and require bit-identical fingerprints
  // (hashes AND original-offset positions) from every engaged tier.
  const FingerprintConfig config;
  const std::vector<std::pair<const char*, std::string>> tokens = {
      {"2-byte e-acute", "\xC3\xA9"},
      {"3-byte CJK", "\xE6\xBC\xA2"},
      {"4-byte emoji", "\xF0\x9F\x94\x92"},
      // Family emoji: person + ZWJ + person + ZWJ + child — alternating
      // 4-byte astral sequences and 3-byte joiners, 17 bytes of nothing
      // but continuation-heavy content.
      {"ZWJ family",
       "\xF0\x9F\x91\xA8\xE2\x80\x8D\xF0\x9F\x91\xA9\xE2\x80\x8D"
       "\xF0\x9F\x91\xA7"},
  };
  // Enough tail to guarantee windows full of grams after the boundary.
  std::string tail;
  for (int i = 0; i < 8; ++i) tail += " the quick brown fox " + std::to_string(i);

  for (const auto& [label, token] : tokens) {
    for (std::size_t lane : {std::size_t{16}, std::size_t{32},
                             std::size_t{64}}) {
      for (std::size_t split = 1; split < token.size(); ++split) {
        // `split` bytes of the token land before a lane boundary, the rest
        // after it (the first boundary the prefix can reach — tokens wider
        // than a lane straddle a later one).
        const std::size_t pad = ((split / lane) + 1) * lane - split;
        std::string text(pad, 'a');
        text += token;
        text += tail;
        const Fingerprint ref = fingerprintTextReference(text, config);
        ASSERT_FALSE(ref.empty()) << label;
        for (KernelTier tier : allTiers()) {
          ScopedTier scoped(tier);
          if (!scoped.engaged()) continue;
          FingerprintWorkspace ws;
          const Fingerprint got = fingerprintTextFused(text, config, ws);
          expectIdentical(got, ref,
                          std::string(label) + " lane " +
                              std::to_string(lane) + " split " +
                              std::to_string(split) + " tier " +
                              simd::kernelTierName(tier));
        }
      }
    }
  }
}

TEST(SimdKernelDifferential, LongCorpusTexts) {
  // Realistic corpus paragraphs at the bench's 16 KiB working size, plus a
  // chunk-boundary-straddling size (the pipeline processes 8 KiB rounds).
  const FingerprintConfig config;
  util::Rng rng(404);
  corpus::TextGenerator gen(&rng);
  std::string text;
  while (text.size() < 16384 + 37) {
    text += gen.paragraph(5, 8);
    text += "\n\n";
  }
  for (KernelTier tier : allTiers()) {
    ScopedTier scoped(tier);
    if (!scoped.engaged()) continue;
    for (std::size_t len : {8191ul, 8193ul, 16384ul, text.size()}) {
      checkAgainstReference(
          std::string_view(text).substr(0, len), config,
          std::string("tier ") + simd::kernelTierName(tier) + " long " +
              std::to_string(len));
    }
  }
}

TEST(SimdKernelDispatch, ChooseKernelTierPolicy) {
  using simd::detail::chooseKernelTier;
  // BF_FORCE_SCALAR_KERNEL beats AVX-512.
  EXPECT_EQ(chooseKernelTier(true, true), KernelTier::kScalar);
  EXPECT_EQ(chooseKernelTier(true, false), KernelTier::kScalar);
  // Otherwise AVX-512 wins where the host has it, scalar everywhere else.
  EXPECT_EQ(chooseKernelTier(false, true), KernelTier::kAvx512);
  EXPECT_EQ(chooseKernelTier(false, false), KernelTier::kScalar);
}

TEST(SimdKernelDispatch, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(simd::kernelTierSupported(KernelTier::kScalar));
  // The active tier is always a supported one.
  EXPECT_TRUE(simd::kernelTierSupported(simd::activeKernelTier()));
}

TEST(SimdKernelDispatch, GaugeTracksOverrides) {
  obs::Gauge& gauge = obs::registry().gauge(
      "bf_kernel_dispatch",
      "Fingerprint kernel tier in use (0=scalar, 3=avx512)");
  for (KernelTier tier : allTiers()) {
    if (!simd::setKernelTierOverrideForTest(tier)) continue;
    EXPECT_EQ(gauge.value(), static_cast<double>(static_cast<int>(tier)))
        << simd::kernelTierName(tier);
    EXPECT_EQ(simd::activeKernelTier(), tier);
  }
  simd::restoreAutoKernelTier();
  EXPECT_EQ(gauge.value(),
            static_cast<double>(static_cast<int>(simd::activeKernelTier())));
}

TEST(SimdKernelDispatch, OverrideRejectsUnsupportedTiers) {
  // On hosts lacking a tier the override must refuse and leave dispatch
  // unchanged (the sweep tests rely on this to skip safely).
  const KernelTier before = simd::activeKernelTier();
  for (KernelTier tier : allTiers()) {
    if (simd::kernelTierSupported(tier)) continue;
    EXPECT_FALSE(simd::setKernelTierOverrideForTest(tier));
    EXPECT_EQ(simd::activeKernelTier(), before);
  }
  // Gauge values 1 and 2 (the removed SSE4.2 and AVX2 tiers) name no
  // kernel on any host.
  for (int removed : {1, 2}) {
    const auto tier = static_cast<KernelTier>(removed);
    EXPECT_FALSE(simd::kernelTierSupported(tier));
    EXPECT_FALSE(simd::setKernelTierOverrideForTest(tier));
    EXPECT_EQ(simd::activeKernelTier(), before);
  }
  simd::restoreAutoKernelTier();
}

}  // namespace
}  // namespace bf::text
