// Differential test of the spliced re-fingerprint (text::refingerprint):
// over seeded edit scripts, splicing from the previous text's fingerprint
// must give exactly what the full fused kernel gives for the new text —
// the same grams, positions and hash set — on every dispatch tier this
// host supports. Each script chains its edits (each result is the next
// edit's old fingerprint), as the decision engine's memo does.
//
// BF_REFINGERPRINT_SEED and BF_REFINGERPRINT_TRIALS widen the seeded
// sweep; the defaults keep ctest quick.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "text/fingerprint_kernel.h"
#include "text/simd/kernel.h"
#include "text/winnower.h"
#include "util/rng.h"

namespace bf::text {
namespace {

using simd::KernelTier;

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Forces one dispatch tier for a scope; back to auto on exit.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier tier)
      : engaged_(simd::setKernelTierOverrideForTest(tier)) {}
  ~ScopedTier() { simd::restoreAutoKernelTier(); }
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }

 private:
  bool engaged_;
};

/// The tiers this host can run, each pinned in turn by the callers.
std::vector<KernelTier> supportedTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier t : {KernelTier::kScalar, KernelTier::kAvx512}) {
    if (simd::kernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

/// Splices `next` from (`prev`, `prevFp`), checks it against the full
/// kernel, and returns the spliced fingerprint for the next step.
Fingerprint checkSplice(const std::string& prev, const Fingerprint& prevFp,
                        const std::string& next,
                        const FingerprintConfig& config,
                        const std::string& label) {
  FingerprintWorkspace ws;
  FingerprintWorkspace refWs;
  Fingerprint got = refingerprint(prev, prevFp, next, config, ws);
  const Fingerprint ref = fingerprintTextFused(next, config, refWs);
  EXPECT_EQ(got.hashes(), ref.hashes()) << label;
  EXPECT_EQ(got.grams().size(), ref.grams().size()) << label;
  const std::size_t n = std::min(got.grams().size(), ref.grams().size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got.grams()[i].hash != ref.grams()[i].hash ||
        got.grams()[i].pos != ref.grams()[i].pos) {
      ADD_FAILURE() << label << ": gram " << i << " is ("
                    << got.grams()[i].hash << ", " << got.grams()[i].pos
                    << "), full kernel (" << ref.grams()[i].hash << ", "
                    << ref.grams()[i].pos << ")";
      break;
    }
  }
  return got;
}

/// Bytes an edit inserts: words, punctuation only, multi-byte UTF-8, or a
/// run of one letter (ties).
std::string insertion(util::Rng& rng, corpus::TextGenerator& gen) {
  switch (rng.uniform(0, 5)) {
    case 0:
      return std::string(1, static_cast<char>('a' + rng.uniform(0, 25)));
    case 1: {
      std::string s = " ";
      s += gen.word();
      return s;
    }
    case 2: {
      static const char punct[] = " .,;:!?-\n\t'\"()";
      std::string s;
      const std::size_t len = rng.uniform(1, 4);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(punct[rng.uniform(0, sizeof(punct) - 2)]);
      }
      return s;
    }
    case 3: {
      static const char* const utf8[] = {"\xC3\xA9", "\xE6\xBC\xA2",
                                         "\xF0\x9F\x94\x92", "na\xC3\xAFve"};
      return utf8[rng.uniform(0, 3)];
    }
    case 4:
      return std::string(rng.uniform(1, 40), 'z');
    default:
      return gen.sentence(2, 8);
  }
}

/// One random edit of `text`: insert, delete or replace, placed anywhere,
/// near either end, or at an end.
std::string edit(const std::string& text, util::Rng& rng,
                 corpus::TextGenerator& gen) {
  std::size_t at;
  switch (rng.uniform(0, 3)) {
    case 0:  // inside the first window
      at = rng.uniform(0, std::min<std::size_t>(text.size(), 40));
      break;
    case 1:  // inside the last window
      at = text.size() - rng.uniform(0, std::min<std::size_t>(text.size(), 40));
      break;
    default:
      at = rng.uniform(0, text.size());
  }
  const std::size_t room = text.size() - at;
  const std::size_t cut =
      room == 0 ? 0
                : static_cast<std::size_t>(rng.uniform(
                      0, std::min<std::size_t>(room, rng.chance(0.1) ? 200 : 3)));
  std::string out = text.substr(0, at);
  switch (rng.uniform(0, 2)) {
    case 0:  // insert
      out += insertion(rng, gen);
      out += text.substr(at);
      break;
    case 1:  // delete
      out += text.substr(at + cut);
      break;
    default:  // replace
      out += insertion(rng, gen);
      out += text.substr(at + cut);
  }
  return out;
}

/// A starting text: prose, prose with UTF-8, tie-heavy periodic text, or
/// something shorter than a window.
std::string startText(util::Rng& rng, corpus::TextGenerator& gen) {
  switch (rng.uniform(0, 4)) {
    case 0:
      return gen.paragraph(1, 3);
    case 1: {
      std::string s = gen.paragraph(3, 12);
      s.insert(rng.uniform(0, s.size()), "caf\xC3\xA9 \xE6\xBC\xA2\xE5\xAD\x97 ");
      return s;
    }
    case 2: {
      // Periodic runs broken by random letters: many equal hashes per
      // window, so the rightmost-minimum tie-break decides most picks.
      std::string s;
      const std::size_t period = rng.uniform(1, 4);
      while (s.size() < 600) {
        for (std::size_t i = 0; i < period; ++i) s += static_cast<char>('a' + i);
        if (rng.chance(0.02)) s += static_cast<char>('a' + rng.uniform(0, 25));
      }
      return s;
    }
    case 3:
      return gen.sentence(2, 6);  // around windowChars
    default:
      return "";
  }
}

const std::vector<FingerprintConfig>& configs() {
  static const std::vector<FingerprintConfig> all = {
      FingerprintConfig{},                    // paper: n = 15, t = 30
      FingerprintConfig{5, 12},               // short grams, w = 8
      FingerprintConfig{8, 8},                // w = 1: every gram picked
      FingerprintConfig{4, 64},               // wide window
  };
  return all;
}

TEST(Refingerprint, MatchesFullKernelOnSeededEditScripts) {
  const std::uint64_t seed = envU64("BF_REFINGERPRINT_SEED", 27);
  const std::uint64_t trials = envU64("BF_REFINGERPRINT_TRIALS", 40);
  for (KernelTier tier : supportedTiers()) {
    ScopedTier scoped(tier);
    ASSERT_TRUE(scoped.engaged());
    util::Rng rng(seed);
    corpus::TextGenerator gen(&rng, 2000);
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      const FingerprintConfig& config =
          configs()[rng.uniform(0, configs().size() - 1)];
      std::string text = startText(rng, gen);
      FingerprintWorkspace ws;
      Fingerprint fp = fingerprintTextFused(text, config, ws);
      for (int step = 0; step < 25; ++step) {
        const std::string next = edit(text, rng, gen);
        fp = checkSplice(text, fp, next, config,
                         std::string("tier ") + simd::kernelTierName(tier) +
                             " seed " + std::to_string(seed) + " trial " +
                             std::to_string(trial) + " step " +
                             std::to_string(step));
        text = next;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(Refingerprint, LengthsCrossingTheWindow) {
  // Typing a text one byte at a time from empty, then deleting it from
  // the front: every length below, at and above windowChars, with the
  // edit at either end.
  const FingerprintConfig config;
  util::Rng rng(31);
  corpus::TextGenerator gen(&rng, 2000);
  const std::string full = gen.paragraph(1, 2);
  for (KernelTier tier : supportedTiers()) {
    ScopedTier scoped(tier);
    ASSERT_TRUE(scoped.engaged());
    const std::string name = simd::kernelTierName(tier);
    std::string text;
    Fingerprint fp;
    for (std::size_t len = 1; len <= full.size(); ++len) {
      const std::string next = full.substr(0, len);
      fp = checkSplice(text, fp, next, config,
                       name + " typed " + std::to_string(len));
      text = next;
    }
    for (std::size_t cut = 1; cut <= full.size(); ++cut) {
      const std::string next = full.substr(cut);
      fp = checkSplice(text, fp, next, config,
                       name + " cut " + std::to_string(cut));
      text = next;
    }
  }
}

TEST(Refingerprint, OldTextIsAPrefixOfTheNew) {
  // The engine's memo may hand a paragraph's fingerprint to its document:
  // the paragraph is then a prefix of the new text (and a suffix, for the
  // last paragraph).
  const FingerprintConfig config;
  util::Rng rng(41);
  corpus::TextGenerator gen(&rng, 2000);
  for (KernelTier tier : supportedTiers()) {
    ScopedTier scoped(tier);
    ASSERT_TRUE(scoped.engaged());
    const std::string name = simd::kernelTierName(tier);
    for (int trial = 0; trial < 20; ++trial) {
      const std::string para = gen.paragraph(2, 5);
      const std::string rest = gen.paragraph(2, 5) + "\n\n" + gen.paragraph(1, 3);
      const Fingerprint paraFp = fingerprintText(para, config);
      checkSplice(para, paraFp, para + "\n\n" + rest, config,
                  name + " first paragraph " + std::to_string(trial));
      checkSplice(para, paraFp, rest + "\n\n" + para, config,
                  name + " last paragraph " + std::to_string(trial));
      const std::string doc = para + "\n\n" + rest;
      checkSplice(doc, fingerprintText(doc, config), para, config,
                  name + " document to paragraph " + std::to_string(trial));
    }
  }
}

TEST(Refingerprint, EmptyTexts) {
  const FingerprintConfig config;
  util::Rng rng(53);
  corpus::TextGenerator gen(&rng, 2000);
  const std::string text = gen.paragraph(3, 4);
  const Fingerprint fp = fingerprintText(text, config);
  const Fingerprint none;
  checkSplice("", none, text, config, "empty to text");
  checkSplice(text, fp, "", config, "text to empty");
  checkSplice("", none, "", config, "empty to empty");
  checkSplice(text, fp, text, config, "unchanged");
}

TEST(SharedEdges, MatchesAByteScan) {
  util::Rng rng(61);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string a(rng.uniform(0, 70), 'x');
    for (char& c : a) c = static_cast<char>('a' + rng.uniform(0, 2));
    std::string b = a;
    // A few random byte edits anywhere, or none.
    for (std::uint64_t k = rng.uniform(0, 3); k > 0; --k) {
      const std::size_t at = rng.uniform(0, b.size());
      switch (rng.uniform(0, 2)) {
        case 0: b.insert(at, 1, static_cast<char>('a' + rng.uniform(0, 2))); break;
        case 1: if (at < b.size()) b.erase(at, 1); break;
        default: if (at < b.size()) b[at] = 'q';
      }
    }
    const std::size_t limit = std::min(a.size(), b.size());
    std::size_t p = 0;
    while (p < limit && a[p] == b[p]) ++p;
    std::size_t q = 0;
    while (q < limit - p && a[a.size() - 1 - q] == b[b.size() - 1 - q]) ++q;
    const SharedEdges e = sharedEdges(a, b);
    ASSERT_EQ(e.prefix, p) << a << " | " << b;
    ASSERT_EQ(e.suffix, q) << a << " | " << b;
  }
}

}  // namespace
}  // namespace bf::text
