// Differential & property tests: the fused single-pass fingerprint kernel
// (text/fingerprint_kernel.h) must produce fingerprints byte-identical to
// the staged reference pipeline normalize → hashNgrams → winnow — same
// hashes AND same original-offset positions — on random texts, corpus
// samples, and adversarial inputs (equal-hash tie-breaks, inputs shorter
// than windowChars, all-punctuation text).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "text/fingerprint_kernel.h"
#include "text/winnower.h"
#include "util/rng.h"

namespace bf::text {
namespace {

/// Exact equality: selected grams (hash, original offset) in order, and
/// the de-duplicated sorted hash set.
void expectIdentical(const Fingerprint& fused, const Fingerprint& ref,
                     const std::string& label) {
  EXPECT_EQ(fused.hashes(), ref.hashes()) << label;
  ASSERT_EQ(fused.grams().size(), ref.grams().size()) << label;
  for (std::size_t i = 0; i < ref.grams().size(); ++i) {
    EXPECT_EQ(fused.grams()[i].hash, ref.grams()[i].hash)
        << label << " gram " << i;
    EXPECT_EQ(fused.grams()[i].pos, ref.grams()[i].pos)
        << label << " gram " << i;
  }
}

void checkText(const std::string& input, const FingerprintConfig& config,
               const std::string& label) {
  FingerprintWorkspace ws;
  const Fingerprint fused = fingerprintTextFused(input, config, ws);
  const Fingerprint ref = fingerprintTextReference(input, config);
  expectIdentical(fused, ref, label);
  // And through the public entry point (thread-local workspace).
  expectIdentical(fingerprintText(input, config), ref, label + " (tls)");
}

FingerprintConfig paperConfig() { return FingerprintConfig{}; }

std::string randomText(util::Rng& rng, std::size_t length) {
  // Mixed alphabet: letters, digits, punctuation, whitespace, high bytes —
  // exercises every branch of the normalizer.
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

TEST(FusedKernel, EmptyAndShortInputs) {
  checkText("", paperConfig(), "empty");
  checkText("a", paperConfig(), "one char");
  checkText("short text", paperConfig(), "short");
  // Exactly one character below / at / above the window boundary.
  checkText(std::string(29, 'q'), paperConfig(), "window-1");
  checkText(std::string(30, 'q'), paperConfig(), "window");
  checkText(std::string(31, 'q'), paperConfig(), "window+1");
}

TEST(FusedKernel, AllPunctuationInput) {
  // Normalizes to nothing even though the raw input is long.
  checkText(std::string(500, '!'), paperConfig(), "all punctuation");
  checkText("... !!! ??? ,,, ;;; ---   \t\n", paperConfig(), "mixed punct");
  FingerprintWorkspace ws;
  EXPECT_TRUE(
      fingerprintTextFused(std::string(500, '.'), paperConfig(), ws).empty());
}

TEST(FusedKernel, EqualHashTieBreaks) {
  // Periodic text: every n-gram at the same phase hashes identically, so
  // windows are full of equal hashes and the rightmost-minimum tie-break
  // decides every selection.
  for (std::size_t period : {1u, 2u, 3u, 5u, 15u}) {
    std::string text;
    while (text.size() < 400) {
      for (std::size_t i = 0; i < period; ++i) {
        text.push_back(static_cast<char>('a' + i));
      }
    }
    checkText(text, paperConfig(), "period " + std::to_string(period));
  }
}

TEST(FusedKernel, PunctuationShiftsOriginalOffsets) {
  // Identical normalized text, very different original offsets: positions
  // must come from the ORIGINAL byte offsets in both implementations.
  const std::string plain =
      "the quick brown fox jumps over the lazy dog again and again and "
      "again until the fingerprint window is certainly full";
  std::string spaced;
  for (char c : plain) {
    spaced.push_back(c);
    spaced += "  ";
  }
  checkText(spaced, paperConfig(), "spaced");
  const Fingerprint a = fingerprintText(plain, paperConfig());
  const Fingerprint b = fingerprintText(spaced, paperConfig());
  EXPECT_TRUE(a.sameHashes(b));  // same normalized content
}

TEST(FusedKernel, RandomTextsAcrossConfigs) {
  util::Rng rng(20260805);
  const std::vector<std::pair<std::size_t, std::size_t>> configs = {
      {15, 30},  // paper defaults
      {5, 10},  {8, 16}, {15, 45}, {20, 40},
      {16, 32},  // n a power of two: outgoing char shares its ring slot
      {1, 1},    // window of one selects every distinct-run gram
      {7, 7},    // w = 1
      {10, 4},   // windowChars < ngramChars (degenerate w = 1)
  };
  for (const auto& [ngram, window] : configs) {
    FingerprintConfig config;
    config.ngramChars = ngram;
    config.windowChars = window;
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t len =
          static_cast<std::size_t>(rng.uniform(0, 3000));
      checkText(randomText(rng, len), config,
                "n=" + std::to_string(ngram) + " w=" + std::to_string(window) +
                    " trial " + std::to_string(trial));
    }
  }
}

/// Text whose windows hold many equal gram hashes: runs of a short random
/// pattern (every gram at the same phase of a run hashes alike) of random
/// length, each broken by a random letter and sometimes a space, so the
/// ties fall at every offset within a winnow block.
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

TEST(FusedKernel, TieHeavyText) {
  // Robust winnowing's rightmost-minimum tie-break decides most picks
  // here, in the scalar kernel and in the dispatched one.
  util::Rng rng(7);
  FingerprintConfig wide;
  wide.ngramChars = 5;
  wide.windowChars = 36;  // w = 32
  for (const FingerprintConfig& config : {paperConfig(), wide}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::string text = tieHeavyText(rng, 20000);
      const std::string label = "w=" +
                                std::to_string(config.windowHashes()) +
                                " trial " + std::to_string(trial);
      checkText(text, config, label);
      FingerprintWorkspace ws;
      expectIdentical(fingerprintTextFusedScalar(text, config, ws),
                      fingerprintTextReference(text, config),
                      label + " (scalar)");
    }
  }
}

TEST(FusedKernel, CorpusParagraphs) {
  util::Rng rng(99);
  corpus::TextGenerator gen(&rng);
  for (int i = 0; i < 30; ++i) {
    checkText(gen.paragraph(1 + i % 5, 8), paperConfig(),
              "corpus paragraph " + std::to_string(i));
  }
}

TEST(FusedKernel, WorkspaceReuseAcrossConfigs) {
  // One workspace serving interleaved configurations must not leak state
  // between calls.
  util::Rng rng(5);
  FingerprintWorkspace ws;
  FingerprintConfig small;
  small.ngramChars = 4;
  small.windowChars = 8;
  const FingerprintConfig paper = paperConfig();
  for (int i = 0; i < 10; ++i) {
    const std::string text = randomText(rng, 800);
    expectIdentical(fingerprintTextFused(text, paper, ws),
                    fingerprintTextReference(text, paper),
                    "reuse paper " + std::to_string(i));
    expectIdentical(fingerprintTextFused(text, small, ws),
                    fingerprintTextReference(text, small),
                    "reuse small " + std::to_string(i));
  }
  EXPECT_GT(ws.scratchBytes(), 0u);
}

TEST(FusedKernel, ScratchDoesNotScaleWithInput) {
  // The workspace holds O(window) scratch plus the selected grams of the
  // LAST call — never the full gram sequence of a large input.
  FingerprintWorkspace ws;
  util::Rng rng(11);
  const std::string big = randomText(rng, 1 << 18);
  const Fingerprint fp = fingerprintTextFused(big, paperConfig(), ws);
  ASSERT_FALSE(fp.empty());
  // Full gram sequence would be 8 bytes per input char (2 MiB here); the
  // scratch must stay near the selected-gram count (~2/(w+1) density) plus
  // the batch kernel's chunk-bounded buffers: under 768 KiB, where 16-byte
  // grams and a 64-bit sort buffer took about 776 KiB.
  EXPECT_LT(ws.scratchBytes(), big.size() * 3);
}

}  // namespace
}  // namespace bf::text
