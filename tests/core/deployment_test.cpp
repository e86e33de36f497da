// Tests for full-deployment persistence: tracker + policy in one encrypted
// file, restored into a fresh plug-in that keeps enforcing — including
// previously granted suppressions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "corpus/text_generator.h"
#include "flow/snapshot.h"
#include "io/vfs.h"
#include "tdm/policy_snapshot.h"
#include "util/binary_io.h"
#include "util/crc32c.h"

namespace bf::core {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  DeploymentTest() : rng_(13), gen_(&rng_) {}
  ~DeploymentTest() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  /// A /tmp path private to this process and test, removed when the test
  /// ends: ctest runs tests as concurrent processes.
  std::string tempPath(const char* name) {
    paths_.push_back(
        "/tmp/bf_deployment_test_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + name);
    return paths_.back();
  }

  static std::string readAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void writeAll(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  static BrowserFlowConfig blockConfig() {
    BrowserFlowConfig c;
    c.mode = EnforcementMode::kBlock;
    return c;
  }

  util::Rng rng_;
  corpus::TextGenerator gen_;
  std::vector<std::string> paths_;
};

TEST_F(DeploymentTest, FullRoundTripKeepsEnforcementAndSuppression) {
  const std::string path = tempPath("full");
  const std::string secret = gen_.paragraph(7, 9);
  const std::string suppressedCopy = gen_.paragraph(7, 9);

  {
    util::LogicalClock clock;
    BrowserFlowPlugin plugin(blockConfig(), &clock);
    plugin.policy().services().upsert({"itool", "Interview Tool",
                                       tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
    plugin.observeServiceDocument("itool", "itool/eval", secret);
    // A declassified copy lives in gdocs.
    plugin.observeServiceDocument("gdocs", "gdocs/copy", suppressedCopy);
    DecisionRequest copyReq;
    copyReq.segmentName = "gdocs/copy2#p0";
    copyReq.documentName = "gdocs/copy2";
    copyReq.serviceId = "gdocs";
    copyReq.text = secret;
    plugin.engine().decide(copyReq);
    ASSERT_TRUE(plugin.suppressTag("alice", "gdocs/copy2#p0", "ti", "ok").ok());
    ASSERT_TRUE(saveDeployment(plugin, path, "org-secret").ok());
  }

  util::LogicalClock clock2;
  BrowserFlowPlugin plugin(blockConfig(), &clock2);
  const auto maxTs = loadDeployment(plugin, path, "org-secret");
  ASSERT_TRUE(maxTs.ok()) << maxTs.errorMessage();
  clock2.advanceTo(maxTs.value() + 1);

  // Enforcement still works from restored fingerprints + labels.
  DecisionRequest newReq;
  newReq.segmentName = "gdocs/new#p0";
  newReq.documentName = "gdocs/new";
  newReq.serviceId = "gdocs";
  newReq.text = secret;
  const Decision blocked = plugin.engine().decide(newReq);
  EXPECT_TRUE(blocked.violation());

  // The restored suppression still holds for the declassified copy.
  DecisionRequest restoredReq;
  restoredReq.segmentName = "gdocs/copy2#p0";
  restoredReq.documentName = "gdocs/copy2";
  restoredReq.serviceId = "gdocs";
  restoredReq.text = secret;
  const Decision allowed = plugin.engine().decide(restoredReq);
  EXPECT_FALSE(allowed.violation());

  // Audit trail restored.
  EXPECT_EQ(plugin.policy()
                .audit()
                .byKind(tdm::AuditRecord::Kind::kTagSuppressed)
                .size(),
            1u);
}

TEST_F(DeploymentTest, EncryptedFileHidesContent) {
  const std::string path = tempPath("enc");
  util::LogicalClock clock;
  BrowserFlowPlugin plugin(blockConfig(), &clock);
  plugin.policy().services().upsert({"itool", "Interview Tool",
                                     tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
  plugin.observeServiceDocument("itool", "itool/eval", gen_.paragraph(6, 8));
  ASSERT_TRUE(saveDeployment(plugin, path, "s3cret").ok());
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(data.find("itool"), std::string::npos);

  util::LogicalClock clock2;
  BrowserFlowPlugin wrongKey(blockConfig(), &clock2);
  EXPECT_FALSE(loadDeployment(wrongKey, path, "wrong").ok());
  util::LogicalClock clock3;
  BrowserFlowPlugin noKey(blockConfig(), &clock3);
  EXPECT_FALSE(loadDeployment(noKey, path, "").ok());
}

TEST_F(DeploymentTest, PlaintextModeWorks) {
  const std::string path = tempPath("plain");
  util::LogicalClock clock;
  BrowserFlowPlugin plugin(blockConfig(), &clock);
  plugin.observeServiceDocument("svc", "svc/doc", gen_.paragraph(6, 8));
  ASSERT_TRUE(saveDeployment(plugin, path, "").ok());
  util::LogicalClock clock2;
  BrowserFlowPlugin restored(blockConfig(), &clock2);
  EXPECT_TRUE(loadDeployment(restored, path, "").ok());
  EXPECT_EQ(restored.tracker().segmentDb().size(),
            plugin.tracker().segmentDb().size());
}

TEST_F(DeploymentTest, MissingFileAndGarbageRejected) {
  util::LogicalClock clock;
  BrowserFlowPlugin plugin(blockConfig(), &clock);
  EXPECT_FALSE(loadDeployment(plugin, "/tmp/definitely-not-here-bf", "").ok());
  const std::string path = tempPath("garbage");
  std::ofstream(path) << "this is not a deployment file";
  EXPECT_FALSE(loadDeployment(plugin, path, "").ok());
}

TEST_F(DeploymentTest, ConcurrencySaveWhileAsyncDecisionsRun) {
  // Saves export tracker and policy state while another thread keeps
  // observing segments into both through decide(); under TSan this catches
  // a save that reads either store without the engine's state lock.
  const std::string path = tempPath("concurrent");
  const std::string secret = gen_.paragraph(6, 8);
  util::LogicalClock clock;
  BrowserFlowPlugin plugin(blockConfig(), &clock);
  plugin.policy().services().upsert({"itool", "Interview Tool",
                                     tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
  plugin.observeServiceDocument("itool", "itool/eval", secret);

  std::vector<DecisionRequest> requests;
  for (int i = 0; i < 300; ++i) {
    DecisionRequest req;
    req.segmentName = "gdocs/live#p" + std::to_string(i);
    req.documentName = "gdocs/live";
    req.serviceId = "gdocs";
    req.text = i % 3 == 0 ? secret : gen_.paragraph(3, 5);
    requests.push_back(std::move(req));
  }
  std::thread decider([&] {
    for (const DecisionRequest& req : requests) {
      (void)plugin.engine().decide(req);
    }
  });
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(saveDeployment(plugin, path, "k").ok());
  }
  decider.join();
  ASSERT_TRUE(saveDeployment(plugin, path, "k").ok());

  util::LogicalClock clock2;
  BrowserFlowPlugin restored(blockConfig(), &clock2);
  ASSERT_TRUE(loadDeployment(restored, path, "k").ok());
  EXPECT_EQ(restored.tracker().segmentDb().size(),
            plugin.tracker().segmentDb().size());
}

TEST_F(DeploymentTest, EveryBitFlipIsRejected) {
  // An encrypted file is authenticated and a plaintext one checksummed
  // before anything is imported: one flipped bit anywhere must fail the
  // load and leave the fresh plug-in as it was.
  const std::string path = tempPath("bitflip");
  util::LogicalClock freshClock;
  const std::string freshPolicy =
      tdm::exportPolicy(BrowserFlowPlugin(blockConfig(), &freshClock).policy());
  for (const char* secret : {"org-secret", ""}) {
    SCOPED_TRACE(*secret != '\0' ? "encrypted" : "plaintext");
    {
      util::LogicalClock clock;
      BrowserFlowPlugin plugin(blockConfig(), &clock);
      plugin.policy().services().upsert({"itool", "Interview Tool",
                                         tdm::TagSet{"ti"},
                                         tdm::TagSet{"ti"}});
      plugin.observeServiceDocument("itool", "itool/eval", gen_.sentence());
      ASSERT_TRUE(saveDeployment(plugin, path, secret).ok());
    }
    const std::string original = readAll(path);
    ASSERT_GT(original.size(), 100u);

    util::LogicalClock clock;
    auto plugin = std::make_unique<BrowserFlowPlugin>(blockConfig(), &clock);
    std::size_t loaded = 0;
    std::size_t altered = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
      std::string flipped = original;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
      writeAll(path, flipped);
      if (loadDeployment(*plugin, path, secret).ok()) ++loaded;
      if (plugin->tracker().segmentDb().size() != 0 ||
          tdm::exportPolicy(plugin->policy()) != freshPolicy) {
        ++altered;
        plugin = std::make_unique<BrowserFlowPlugin>(blockConfig(), &clock);
      }
    }
    EXPECT_EQ(loaded, 0u) << "of " << original.size() << " flips";
    EXPECT_EQ(altered, 0u) << "of " << original.size() << " flips";

    // The unflipped file still loads.
    writeAll(path, original);
    EXPECT_TRUE(loadDeployment(*plugin, path, secret).ok());
  }
}

TEST_F(DeploymentTest, TruncatedPolicyBlobLeavesBothStoresEmpty) {
  // A file whose tag and CRC are valid but whose policy blob is cut short
  // must fail the load without restoring the tracker or half the policy.
  const std::string path = tempPath("truncpolicy");
  std::string trackerBlob;
  std::string policyBlob;
  {
    util::LogicalClock clock;
    BrowserFlowPlugin plugin(blockConfig(), &clock);
    plugin.policy().services().upsert({"itool", "Interview Tool",
                                       tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
    plugin.observeServiceDocument("itool", "itool/eval", gen_.paragraph(6, 8));
    trackerBlob = flow::exportState(plugin.tracker());
    policyBlob = tdm::exportPolicy(plugin.policy());
  }
  ASSERT_GT(policyBlob.size(), 16u);
  policyBlob.resize(policyBlob.size() - 4);  // into the audit-log count
  std::string payload = "BFDEPS2\n";
  util::putStr(payload, trackerBlob);
  util::putStr(payload, policyBlob);
  util::appendCrc32cTrailer(payload);
  ASSERT_TRUE(
      flow::writeSealedFile(io::defaultVfs(), path, payload, "org-secret")
          .ok());

  util::LogicalClock clock;
  BrowserFlowPlugin plugin(blockConfig(), &clock);
  const std::string freshPolicy = tdm::exportPolicy(plugin.policy());
  const auto loaded = loadDeployment(plugin, path, "org-secret");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.errorMessage().find("policy"), std::string::npos);
  EXPECT_EQ(plugin.tracker().segmentDb().size(), 0u);
  EXPECT_EQ(plugin.tracker().hashDb().distinctHashCount(
                flow::SegmentKind::kParagraph),
            0u);
  EXPECT_EQ(plugin.policy().services().size(), 0u);
  EXPECT_TRUE(plugin.policy().allLabels().empty());
  EXPECT_EQ(tdm::exportPolicy(plugin.policy()), freshPolicy);
}

TEST_F(DeploymentTest, SnapshotAndDeploymentFilesAreNotInterchangeable) {
  // Checkpoints and deployment files share the sealed envelope and its
  // keys; the payload magic keeps one from loading as the other.
  const std::string path = tempPath("crosstype");
  util::LogicalClock clock;
  BrowserFlowPlugin plugin(blockConfig(), &clock);
  plugin.observeServiceDocument("svc", "svc/doc", gen_.paragraph(6, 8));
  for (const char* secret : {"k", ""}) {
    SCOPED_TRACE(*secret != '\0' ? "encrypted" : "plaintext");
    ASSERT_TRUE(flow::saveSnapshot(plugin.tracker(), path, secret, 3).ok());
    util::LogicalClock clock2;
    BrowserFlowPlugin fresh(blockConfig(), &clock2);
    EXPECT_FALSE(loadDeployment(fresh, path, secret).ok());
    EXPECT_EQ(fresh.tracker().segmentDb().size(), 0u);

    ASSERT_TRUE(saveDeployment(plugin, path, secret).ok());
    util::LogicalClock clock3;
    flow::FlowTracker tracker(flow::TrackerConfig{}, &clock3);
    EXPECT_FALSE(flow::loadSnapshot(tracker, path, secret).ok());
    EXPECT_EQ(tracker.segmentDb().size(), 0u);
  }
}

}  // namespace
}  // namespace bf::core
