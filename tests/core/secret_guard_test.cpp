// Tests for SecretGuard and its integration with the decision pipeline
// (paper S4.4's data-equality protection for short secrets).
//
// BF_SECRET_SPLICE_SEED and BF_SECRET_SPLICE_TRIALS widen the seeded
// rescan differential; the defaults keep ctest quick.
#include <gtest/gtest.h>

#include <cstdlib>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/network.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "obs/metrics.h"
#include "text/aho_corasick.h"
#include "text/fingerprint_kernel.h"
#include "text/normalizer.h"
#include "util/rng.h"

namespace bf::core {
namespace {

TEST(SecretGuard, NormalizedMatching) {
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("db-password", "Hunter-2 42!", "secret"));
  // Case, punctuation and spacing differences do not hide the secret.
  EXPECT_TRUE(guard.containsSecret("the password is hunter242, don't share"));
  EXPECT_TRUE(guard.containsSecret("HUNTER242"));
  EXPECT_FALSE(guard.containsSecret("hunter2 is not the whole secret"));
}

TEST(SecretGuard, RejectsTrivialSecrets) {
  SecretGuard guard;
  EXPECT_FALSE(guard.addSecret("too-short", "ab1", "t"));
  EXPECT_FALSE(guard.addSecret("punct-only", "!!!---", "t"));
  EXPECT_EQ(guard.size(), 0u);
}

TEST(SecretGuard, ScanReportsEachSecretOnce) {
  SecretGuard guard;
  ASSERT_TRUE(guard.addSecret("alpha", "alphasecret", "ta"));
  ASSERT_TRUE(guard.addSecret("beta", "betasecret", "tb"));
  const auto hits = guard.scan(
      "alphasecret here, alphasecret again, and betasecret too");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].name, "alpha");
  EXPECT_EQ(hits[1].name, "beta");
}

TEST(SecretGuard, EmptyGuardScansNothing) {
  SecretGuard guard;
  EXPECT_TRUE(guard.scan("any text").empty());
  EXPECT_FALSE(guard.containsSecret("any text"));
}

// ---- The fused scan against normalize + findAll ----------------------------

/// Re-cases, punctuates and pads a secret value the way a user might type
/// it: the normalized form is unchanged.
std::string disguise(util::Rng& rng, const std::string& value) {
  static const char kNoise[] = " -_.,:;!?/\t\n()'\"";
  std::string out;
  for (char c : value) {
    if (rng.uniform(0, 3) == 0) {
      out.push_back(kNoise[rng.uniform(0, sizeof(kNoise) - 2)]);
    }
    out.push_back(c >= 'a' && c <= 'z' && rng.uniform(0, 1) == 0
                      ? static_cast<char>(c - 'a' + 'A')
                      : c);
  }
  return out;
}

/// Filler: lowercase/uppercase words, punctuation, and non-ASCII bytes.
std::string filler(util::Rng& rng, std::size_t bytes) {
  std::string out;
  while (out.size() < bytes) {
    switch (rng.uniform(0, 5)) {
      case 0:
        out.push_back(static_cast<char>(rng.uniform(0x80, 0xff)));
        break;
      case 1:
        out.push_back(" .,;-\n"[rng.uniform(0, 5)]);
        break;
      case 2:
        out.push_back(static_cast<char>('A' + rng.uniform(0, 25)));
        break;
      default:
        out.push_back(static_cast<char>('a' + rng.uniform(0, 5)));  // tiny
        break;
    }
  }
  return out;
}

TEST(SecretGuard, FusedScanMatchesNormalizeThenFindAll) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    SecretGuard guard;
    text::AhoCorasick oracle;  // verbatim bytes, fed normalized text
    std::vector<std::string> values;
    std::vector<SecretGuard::Secret> accepted;
    // Nested and overlapping secrets over a tiny alphabet, non-ASCII
    // bytes inside secrets, and values that normalize too short.
    const std::string base = "abcab" + filler(rng, 6) + "cabca";
    values.push_back(base);
    values.push_back(base.substr(2));                  // suffix
    values.push_back(base.substr(0, base.size() - 2));  // prefix
    values.push_back(base + "bcabc");                  // extension
    for (int i = 0; i < 8; ++i) {
      values.push_back(filler(rng, rng.uniform(3, 14)));
    }
    values.push_back("ab-1");  // too short once normalized
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::string name = "s";
      name += std::to_string(i);
      std::string tag = "t";
      tag += std::to_string(i % 3);
      const std::string normalized = text::normalize(values[i]).text;
      ASSERT_EQ(guard.addSecret(name, values[i], tag),
                normalized.size() >= SecretGuard::kMinLength);
      if (normalized.size() < SecretGuard::kMinLength) continue;
      oracle.addPattern(normalized, accepted.size());
      accepted.push_back(SecretGuard::Secret{name, tag});
    }

    for (int t = 0; t < 25; ++t) {
      // Secrets at either end, disguised secrets in the middle, and an
      // empty text now and then.
      std::string text;
      if (t % 10 == 9) {
        text.clear();
      } else {
        if (rng.uniform(0, 1) == 0) text += disguise(rng, rng.pick(values));
        for (int k = 0; k < 4; ++k) {
          text += filler(rng, rng.uniform(0, 40));
          if (rng.uniform(0, 1) == 0) text += disguise(rng, rng.pick(values));
        }
        if (rng.uniform(0, 1) == 0) text += disguise(rng, rng.pick(values));
      }

      std::vector<std::string> expectedNames;
      std::vector<tdm::Tag> expectedTags;
      std::vector<bool> seen(accepted.size(), false);
      const auto matches = oracle.findAll(text::normalize(text).text);
      for (const auto& match : matches) {
        if (seen[match.id]) continue;
        seen[match.id] = true;
        expectedNames.push_back(accepted[match.id].name);
        expectedTags.push_back(accepted[match.id].tag);
      }
      std::vector<std::string> names;
      std::vector<tdm::Tag> tags;
      for (const auto& hit : guard.scan(text)) {
        names.push_back(hit.name);
        tags.push_back(hit.tag);
      }
      EXPECT_EQ(names, expectedNames) << "seed " << seed << " text " << t;
      EXPECT_EQ(tags, expectedTags) << "seed " << seed << " text " << t;
      EXPECT_EQ(guard.containsSecret(text), !matches.empty())
          << "seed " << seed << " text " << t;
    }
  }
}

// ---- The spliced rescan against the full scan ------------------------------

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Secrets that stress the splice: written with case and skipped bytes,
/// one a prefix and one a suffix of another, a run of one letter so that
/// several matches end on one byte, and bytes >= 0x80.
void addSpliceSecrets(SecretGuard& guard) {
  ASSERT_TRUE(guard.addSecret("base", "AbC-aBc.aBd", "t0"));
  ASSERT_TRUE(guard.addSecret("prefix", "abcabc", "t1"));
  ASSERT_TRUE(guard.addSecret("suffix", "c abc abd", "t1"));
  ASSERT_TRUE(guard.addSecret("run6", "aaaaaa", "t2"));
  ASSERT_TRUE(guard.addSecret("run8", "aa-aa-aa-aa", "t2"));
  ASSERT_TRUE(guard.addSecret("utf8", "caf\xc3\xa9 \xc3\xa9t\xc3\xa9", "t3"));
  ASSERT_TRUE(guard.addSecret("long", "abdabcabdabcabdabcabd", "t3"));
}

/// Bytes an edit inserts or a text starts with: filler, a disguised
/// secret or a piece of one, one letter, or skipped bytes only.
std::string spliceChunk(util::Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "abcabd", "AbC aBd", "aaaa", "a-a-a", "caf\xc3\xa9", "\xc3\xa9t\xc3\xa9",
      "abdabcabdabc", "c ABC abd", "aaaaaaaaa", "abdabcabdabcabdabcabd",
      "abdabcabd-abcabd abcabd"};
  switch (rng.uniform(0, 5)) {
    case 0:
      return filler(rng, rng.uniform(1, 30));
    case 1:
      return disguise(rng, rng.pick(kPieces));
    case 2:
      return std::string(1, static_cast<char>('a' + rng.uniform(0, 3)));
    case 3:
      return std::string(rng.uniform(1, 4), " .-\n"[rng.uniform(0, 3)]);
    default:
      return disguise(rng, kPieces[rng.uniform(9, 10)]) + filler(rng, 3);
  }
}

/// One edit: insert, delete or replace bytes, at either end or anywhere.
std::string spliceEdit(const std::string& text, util::Rng& rng) {
  std::string out = text;
  const std::size_t n = out.size();
  std::size_t pos;
  switch (rng.uniform(0, 3)) {
    case 0:
      pos = 0;
      break;
    case 1:
      pos = n;
      break;
    default:
      pos = rng.uniform(0, n);
      break;
  }
  const std::size_t room = n - pos;
  switch (rng.uniform(0, 2)) {
    case 0:
      out.insert(pos, spliceChunk(rng));
      break;
    case 1:
      if (room == 0) {
        if (pos > 0) out.erase(pos - 1, 1);
      } else {
        out.erase(pos, rng.uniform(1, std::min<std::size_t>(room, 12)));
      }
      break;
    default:
      out.replace(pos, std::min<std::size_t>(room, rng.uniform(0, 6)),
                  spliceChunk(rng));
      break;
  }
  return out;
}

/// Rescans `next` from (`prev`, `prevMatches`), checks the result against
/// the full scan match for match and hit for hit, and returns it for the
/// next step.
std::vector<SecretGuard::Match> checkRescan(
    SecretGuard& guard, const std::string& prev,
    const std::vector<SecretGuard::Match>& prevMatches,
    const std::string& next, const std::string& label) {
  std::vector<SecretGuard::Match> got = guard.rescan(
      prev, prevMatches, next, text::sharedEdges(prev, next));
  const std::vector<SecretGuard::Match> full = guard.matches(next);
  EXPECT_EQ(got.size(), full.size()) << label;
  const std::size_t n = std::min(got.size(), full.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] != full[i]) {
      ADD_FAILURE() << label << ": match " << i << " is (" << got[i].secret
                    << ", " << got[i].end << "), full scan ("
                    << full[i].secret << ", " << full[i].end << ")";
      break;
    }
  }
  std::vector<std::string> gotNames;
  for (const auto& hit : guard.hitsOf(got)) gotNames.push_back(hit.name);
  std::vector<std::string> scanNames;
  for (const auto& hit : guard.scan(next)) scanNames.push_back(hit.name);
  EXPECT_EQ(gotNames, scanNames) << label;
  return got;
}

TEST(SecretGuard, RescanMatchesFullScanOnSeededEditScripts) {
  const std::uint64_t seed = envU64("BF_SECRET_SPLICE_SEED", 11);
  const std::uint64_t trials = envU64("BF_SECRET_SPLICE_TRIALS", 40);
  SecretGuard guard;
  addSpliceSecrets(guard);
  util::Rng rng(seed);
  std::size_t matched = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    // Some scripts start empty and stay shorter than the window for a
    // while; the rest start from a few hundred bytes.
    std::string text;
    if (rng.uniform(0, 3) != 0) {
      while (text.size() < 300) text += spliceChunk(rng);
    }
    std::vector<SecretGuard::Match> found = guard.matches(text);
    for (int step = 0; step < 30; ++step) {
      const std::string next = spliceEdit(text, rng);
      found = checkRescan(guard, text, found, next,
                          "seed " + std::to_string(seed) + " trial " +
                              std::to_string(trial) + " step " +
                              std::to_string(step));
      matched += found.size();
      text = next;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(matched, trials) << "the scripts must plant secrets";
}

TEST(SecretGuard, RescanMatchesFullScanAcrossTheWindow) {
  // Typing a text with secrets one byte at a time from empty, then
  // deleting it from the front: every length below, at and above the
  // longest secret, with the edit at either end.
  SecretGuard guard;
  addSpliceSecrets(guard);
  const std::string full =
      "x AbCaBc-aBd aaaaaaaa caf\xc3\xa9\xc3\xa9t\xc3\xa9 abdabcabdabcabdabcabd y";
  std::string text;
  std::vector<SecretGuard::Match> found;
  for (std::size_t len = 1; len <= full.size(); ++len) {
    const std::string next = full.substr(0, len);
    found = checkRescan(guard, text, found, next,
                        "typed " + std::to_string(len));
    text = next;
  }
  EXPECT_EQ(guard.hitsOf(found).size(), 7u);
  while (!text.empty()) {
    const std::string next = text.substr(1);
    found = checkRescan(guard, text, found, next,
                        "cut to " + std::to_string(next.size()));
    text = next;
  }
  EXPECT_TRUE(found.empty());
}

TEST(SecretGuard, RescanKeepsSeveralMatchesEndingOnOneByte) {
  // "aaaaaaaa" completes run6 three times and run8 once; the last byte
  // ends both, longest first. Editing far from them keeps all four.
  SecretGuard guard;
  addSpliceSecrets(guard);
  const std::string before = std::string(40, 'x') + "aaaaaaaa" +
                             std::string(40, 'y');
  const std::string after = "z" + before + "z";
  const auto old = guard.matches(before);
  ASSERT_EQ(old.size(), 4u);
  EXPECT_EQ(old[2].end, old[3].end);
  const auto got = guard.rescan(before, old, after,
                                  text::sharedEdges(before, after));
  EXPECT_EQ(got, guard.matches(after));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3].end, old[3].end + 1);
}

TEST(SecretGuard, RescanWalksTheEditAndItsWindow) {
  // One letter typed mid-way into 20 KB walks about two windows of the
  // longest secret, not the text.
  SecretGuard guard;
  addSpliceSecrets(guard);
  util::Rng rng(3);
  const std::string before = filler(rng, 20000);
  // "q" inserted at offset 10000, built by appending the two halves.
  std::string after = before.substr(0, 10000);
  after += 'q';
  after += before.substr(10000);
  const auto old = guard.matches(before);
  obs::Counter& walked = obs::registry().counter("bf_secret_scanned_bytes_total");
  const std::uint64_t start = walked.value();
  EXPECT_EQ(
      guard.rescan(before, old, after, text::sharedEdges(before, after)),
      guard.matches(after));
  const std::uint64_t rescanned = walked.value() - start - after.size();
  // 21 consumed symbols on each side of the edit, plus the bytes the
  // walk skips between them.
  EXPECT_LE(rescanned, 200u);
  EXPECT_GE(rescanned, 43u);
}

TEST(SecretGuard, GenerationChangesOnlyWithTheSecretSet) {
  SecretGuard guard;
  const std::uint64_t initial = guard.generation();
  EXPECT_FALSE(guard.addSecret("too-short", "ab1", "t"));
  EXPECT_EQ(guard.generation(), initial);
  ASSERT_TRUE(guard.addSecret("db-password", "Hunter-2 42!", "secret"));
  EXPECT_NE(guard.generation(), initial);
}

// ---- Integration with the plug-in ---------------------------------------------

class SecretGuardPluginTest : public ::testing::Test {
 protected:
  SecretGuardPluginTest()
      : rng_(77),
        gen_(&rng_),
        network_(&rng_),
        plugin_(blockConfig(), &clock_),
        browser_(&network_) {
    network_.registerService("https://docs.google.com", &docsBackend_);
    // The vault service is trusted with the api-key tag.
    plugin_.policy().services().upsert({"https://vault.corp", "Vault",
                                        tdm::TagSet{"api-key"},
                                        tdm::TagSet{}});
    network_.registerService("https://vault.corp", &vaultBackend_);
    plugin_.secretGuard().addSecret(
        "prod-api-key", "sk-live-9A7xQ2Lm44", "api-key");
    browser_.addExtension(&plugin_);
  }

  static BrowserFlowConfig blockConfig() {
    BrowserFlowConfig c;
    c.mode = EnforcementMode::kBlock;
    return c;
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  cloud::SimNetwork network_;
  cloud::DocsBackend docsBackend_;
  cloud::DocsBackend vaultBackend_;
  BrowserFlowPlugin plugin_;
  browser::Browser browser_;
};

TEST_F(SecretGuardPluginTest, SecretInDocsUploadBlocked) {
  browser::Page& page = browser_.openTab("https://docs.google.com/d/k1");
  cloud::DocsClient docs(page, "k1");
  docs.openDocument();
  // A fingerprint could never catch this: the paragraph is fresh prose
  // with the key embedded mid-sentence.
  const int status = docs.insertParagraph(
      0, "Deployment checklist for Friday: rotate certificates, set "
         "SK-LIVE-9a7xq2lm44 in the environment, and restart the workers.");
  EXPECT_EQ(status, 403);
  EXPECT_TRUE(docsBackend_.paragraphsOf("k1").empty());
  // The paragraph is highlighted and the hit is named in the warning.
  EXPECT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kViolation);
  ASSERT_FALSE(plugin_.warnings().empty());
  const auto& d = plugin_.warnings().front().decision;
  ASSERT_FALSE(d.secretHits.empty());
  EXPECT_EQ(d.secretHits[0], "prod-api-key");
}

TEST_F(SecretGuardPluginTest, SecretAllowedIntoPrivilegedService) {
  browser::Page& page = browser_.openTab("https://vault.corp/d/store");
  cloud::DocsClient vault(page, "store");
  vault.openDocument();
  const int status =
      vault.insertParagraph(0, "rotating key sk-live-9A7xQ2Lm44 tonight");
  EXPECT_EQ(status, 200) << "Lp(vault) includes api-key";
}

TEST_F(SecretGuardPluginTest, DeletingSecretClearsViolationOnNextEdit) {
  browser::Page& page = browser_.openTab("https://docs.google.com/d/k2");
  cloud::DocsClient docs(page, "k2");
  docs.openDocument();
  docs.insertParagraph(0, "note with sk-live-9A7xQ2Lm44 inside it somewhere");
  ASSERT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kViolation);
  // The user removes the key: the implicit tag refreshes away.
  EXPECT_EQ(docs.setParagraph(0, "note with the key removed from it"), 200);
  EXPECT_EQ(docs.paragraphNode(0)->attribute(BrowserFlowPlugin::kStateAttr),
            BrowserFlowPlugin::kClean);
}

TEST_F(SecretGuardPluginTest, FreshProseUnaffected) {
  browser::Page& page = browser_.openTab("https://docs.google.com/d/k3");
  cloud::DocsClient docs(page, "k3");
  docs.openDocument();
  EXPECT_EQ(docs.insertParagraph(0, gen_.paragraph(6, 9)), 200);
}

}  // namespace
}  // namespace bf::core
