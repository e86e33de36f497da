// Tests for TDM policy snapshot persistence.
#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "tdm/policy_snapshot.h"
#include "util/clock.h"

namespace bf::tdm {
namespace {

/// Restores `blob` into `policy` the way a deployment load does: staged in
/// full, then applied.
util::Status importPolicy(TdmPolicy& policy, std::string_view blob) {
  util::Result<StagedPolicy> staged = stagePolicy(policy, blob);
  if (!staged.ok()) return util::Status::error(staged.errorMessage());
  applyPolicy(policy, std::move(staged).value());
  return {};
}

class PolicySnapshotTest : public ::testing::Test {
 protected:
  PolicySnapshotTest() : policy_(&clock_) {}

  /// Builds a policy exercising every serialized feature.
  void populate() {
    policy_.services().upsert({"itool", "Interview Tool", TagSet{"ti"},
                               TagSet{"ti"}});
    policy_.services().upsert({"wiki", "Internal Wiki", TagSet{"tw", "ti"},
                               TagSet{"tw"}});
    policy_.onSegmentObserved("itool/a#p0", "itool");
    policy_.onSegmentObserved("wiki/b#p0", "wiki");
    policy_.onSegmentObserved("wiki/b#p0", "itool");  // stored in two places
    policy_.refreshImplicitTags("wiki/b#p0", {"itool/a#p0"});
    ASSERT_TRUE(
        policy_.suppressTag("alice", "wiki/b#p0", "ti", "cleared").ok());
    ASSERT_TRUE(policy_.allocateCustomTag("bob", "tn").ok());
    ASSERT_TRUE(policy_.addCustomTagToSegment("bob", "wiki/b#p0", "tn").ok());
  }

  util::LogicalClock clock_;
  TdmPolicy policy_;
};

TEST_F(PolicySnapshotTest, RoundTripPreservesEverything) {
  populate();
  const std::string blob = exportPolicy(policy_);

  util::LogicalClock clock2;
  TdmPolicy restored(&clock2);
  const auto st = importPolicy(restored, blob);
  ASSERT_TRUE(st.ok()) << st.errorMessage();

  // Services.
  const ServiceInfo* wiki = restored.services().find("wiki");
  ASSERT_NE(wiki, nullptr);
  EXPECT_EQ(wiki->displayName, "Internal Wiki");
  EXPECT_TRUE(wiki->privilege.contains("ti"));
  EXPECT_TRUE(wiki->privilege.contains("tn")) << "auto-granted tag restored";

  // Labels with all three partitions.
  const Label* b = restored.labelOf("wiki/b#p0");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->explicitTags().contains("tw"));
  EXPECT_TRUE(b->explicitTags().contains("tn"));
  EXPECT_TRUE(b->implicitTags().contains("ti"));
  EXPECT_TRUE(b->suppressedTags().contains("ti"));

  // The restored label behaves identically in flow checks.
  EXPECT_EQ(restored.checkUpload("wiki/b#p0", "wiki").allowed,
            policy_.checkUpload("wiki/b#p0", "wiki").allowed);
  EXPECT_EQ(restored.checkUpload("itool/a#p0", "wiki").allowed,
            policy_.checkUpload("itool/a#p0", "wiki").allowed);

  // Presence.
  EXPECT_EQ(restored.servicesStoring("wiki/b#p0").size(), 2u);

  // Custom-tag ownership.
  EXPECT_EQ(restored.customTagOwner("tn"), "bob");

  // Audit log.
  EXPECT_EQ(restored.audit().size(), policy_.audit().size());
  EXPECT_EQ(restored.audit().byUser("alice").size(), 1u);
}

TEST_F(PolicySnapshotTest, ExportIsDeterministic) {
  populate();
  EXPECT_EQ(exportPolicy(policy_), exportPolicy(policy_));
}

TEST_F(PolicySnapshotTest, ImportRequiresEmptyPolicy) {
  populate();
  const std::string blob = exportPolicy(policy_);
  EXPECT_FALSE(importPolicy(policy_, blob).ok());
}

TEST_F(PolicySnapshotTest, ImportRejectsGarbageAndTruncation) {
  util::LogicalClock clock2;
  TdmPolicy restored(&clock2);
  EXPECT_FALSE(importPolicy(restored, "junk").ok());
  populate();
  std::string blob = exportPolicy(policy_);
  blob.resize(blob.size() - 5);
  util::LogicalClock clock3;
  TdmPolicy restored2(&clock3);
  EXPECT_FALSE(importPolicy(restored2, blob).ok());
}

TEST_F(PolicySnapshotTest, EmptyPolicyRoundTrips) {
  const std::string blob = exportPolicy(policy_);
  util::LogicalClock clock2;
  TdmPolicy restored(&clock2);
  EXPECT_TRUE(importPolicy(restored, blob).ok());
  EXPECT_EQ(restored.audit().size(), 0u);
}

}  // namespace
}  // namespace bf::tdm
