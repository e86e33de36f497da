// Tests for the policy configuration loader.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "cloud/network.h"
#include "core/policy_config.h"
#include "corpus/text_generator.h"

namespace bf::core {
namespace {

constexpr const char* kFullConfig = R"(
# Acme Corp data disclosure policy, v3
[defaults]
mode = block

[service https://itool.corp]
name = Interview Tool
privilege = ti, tw
confidentiality = ti

[service https://wiki.corp]
name = Internal Wiki
privilege = tw
confidentiality = tw

[service https://notes.example]
name = Notes SaaS
adapter = json: note_text, subject

[secret prod-api-key]
tag = api-key
value = sk-live-9A7xQ2Lm44
)";

class PolicyConfigTest : public ::testing::Test {
 protected:
  PolicyConfigTest() : plugin_(BrowserFlowConfig{}, &clock_) {}
  util::LogicalClock clock_;
  BrowserFlowPlugin plugin_;
};

TEST_F(PolicyConfigTest, FullConfigApplies) {
  const auto result = loadPolicyConfig(plugin_, kFullConfig);
  ASSERT_TRUE(result.ok()) << result.errorMessage();
  EXPECT_EQ(result.value().services, 3u);
  EXPECT_EQ(result.value().secrets, 1u);
  EXPECT_TRUE(result.value().modeSet);
  EXPECT_TRUE(result.value().warnings.empty());

  EXPECT_EQ(plugin_.config().mode, EnforcementMode::kBlock);
  const tdm::ServiceInfo* itool =
      plugin_.policy().services().find("https://itool.corp");
  ASSERT_NE(itool, nullptr);
  EXPECT_EQ(itool->displayName, "Interview Tool");
  EXPECT_TRUE(itool->privilege.contains("ti"));
  EXPECT_TRUE(itool->privilege.contains("tw"));
  EXPECT_TRUE(itool->confidentiality.contains("ti"));
  EXPECT_FALSE(itool->confidentiality.contains("tw"));
  EXPECT_TRUE(plugin_.secretGuard().containsSecret(
      "deploying with sk-live-9A7xQ2Lm44 tonight"));
}

TEST_F(PolicyConfigTest, LoadedPolicyEnforces) {
  ASSERT_TRUE(loadPolicyConfig(plugin_, kFullConfig).ok());
  util::Rng rng(5);
  corpus::TextGenerator gen(&rng);
  const std::string secret = gen.paragraph(7, 9);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/doc", secret);
  DecisionRequest req;
  req.segmentName = "https://ext.example/x#p0";
  req.documentName = "https://ext.example/x";
  req.serviceId = "https://ext.example";
  req.text = secret;
  const Decision d = plugin_.engine().decide(req);
  EXPECT_EQ(d.action, Decision::Action::kBlock) << "mode=block must apply";
}

TEST_F(PolicyConfigTest, UnknownKeysAndSectionsWarnNotFail) {
  const auto result = loadPolicyConfig(plugin_, R"(
[defaults]
colour = mauve
[gadget frobnicator]
speed = 9
[service https://x.example]
privilege = a
shape = round
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().services, 1u);
  // colour (defaults), [gadget] section, speed (outside section), shape.
  EXPECT_EQ(result.value().warnings.size(), 4u);
}

TEST_F(PolicyConfigTest, StructuralErrorsFail) {
  EXPECT_FALSE(loadPolicyConfig(plugin_, "[defaults\nmode = warn").ok());
  EXPECT_FALSE(loadPolicyConfig(plugin_, "[service]\n").ok());
  EXPECT_FALSE(loadPolicyConfig(plugin_, "[secret]\n").ok());
  EXPECT_FALSE(
      loadPolicyConfig(plugin_, "[defaults]\nmode = shout").ok());
}

TEST_F(PolicyConfigTest, IncompleteSecretWarnsAndSkips) {
  const auto result = loadPolicyConfig(plugin_, R"(
[secret half-done]
tag = t
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().secrets, 0u);
  ASSERT_EQ(result.value().warnings.size(), 1u);
  EXPECT_NE(result.value().warnings[0].find("half-done"), std::string::npos);
}

TEST_F(PolicyConfigTest, TooShortSecretWarns) {
  const auto result = loadPolicyConfig(plugin_, R"(
[secret tiny]
tag = t
value = ab
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().secrets, 0u);
  EXPECT_EQ(result.value().warnings.size(), 1u);
}

TEST_F(PolicyConfigTest, EmptyConfigIsFine) {
  const auto result = loadPolicyConfig(plugin_, "\n# nothing here\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().services, 0u);
  EXPECT_FALSE(result.value().modeSet);
}

TEST_F(PolicyConfigTest, FileVariant) {
  const std::string path = "/tmp/bf_policy_config_test_" +
                           std::to_string(::getpid()) + "_FileVariant.ini";
  std::ofstream(path) << kFullConfig;
  const auto result = loadPolicyConfigFile(plugin_, path);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.value().services, 3u);
  std::remove(path.c_str());
  EXPECT_FALSE(loadPolicyConfigFile(plugin_, "/tmp/definitely-missing").ok());
}

TEST_F(PolicyConfigTest, JsonAdapterFromConfigIntercepts) {
  ASSERT_TRUE(loadPolicyConfig(plugin_, kFullConfig).ok());
  util::Rng rng(6);
  corpus::TextGenerator gen(&rng);
  cloud::SimNetwork network(&rng);
  browser::Browser browser(&network);
  browser.addExtension(&plugin_);

  const std::string secret = gen.paragraph(7, 9);
  plugin_.observeServiceDocument("https://itool.corp",
                                 "https://itool.corp/d2", secret);
  browser::Page& page = browser.openTab("https://notes.example/app");
  browser::Xhr xhr = page.newXhr();
  xhr.open("POST", "https://notes.example/api/notes");
  // The configured adapter watches "note_text".
  EXPECT_EQ(xhr.send(std::string(R"({"note_text": ")") + secret + "\"}")
                .status,
            403);
}

}  // namespace
}  // namespace bf::core
