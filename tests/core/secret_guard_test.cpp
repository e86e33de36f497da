// Tests for SecretGuard and its integration with the decision pipeline
// (paper S4.4's data-equality protection for short secrets).
#include <gtest/gtest.h>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/network.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "text/aho_corasick.h"
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
