// Tests for TdmPolicy: the scenarios of paper Figs. 3, 4, 5 and 6, plus
// audit-trail and custom-tag mechanics.
#include <gtest/gtest.h>

#include "tdm/policy.h"
#include "util/clock.h"

namespace bf::tdm {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : policy_(&clock_) {
    // The running example's three services (Fig. 3).
    policy_.services().upsert(
        {"itool", "Interview Tool", TagSet{"ti"}, TagSet{"ti"}});
    policy_.services().upsert(
        {"wiki", "Internal Wiki", TagSet{"tw"}, TagSet{"tw"}});
    policy_.services().upsert({"gdocs", "Google Docs", TagSet{}, TagSet{}});
  }

  util::LogicalClock clock_;
  TdmPolicy policy_;
};

TEST_F(PolicyTest, Figure3DefaultTagAssignment) {
  // Step 1: text created in the Interview Tool gets Lc = {ti}.
  const Label& l1 = policy_.onSegmentObserved("itool/doc#p0", "itool");
  EXPECT_TRUE(l1.explicitTags().contains("ti"));

  // Step 2: {ti} ⊄ {tw}: Wiki upload blocked.
  const UploadDecision toWiki = policy_.checkUpload("itool/doc#p0", "wiki");
  EXPECT_FALSE(toWiki.allowed);
  ASSERT_EQ(toWiki.violatingTags.size(), 1u);
  EXPECT_EQ(toWiki.violatingTags[0], "ti");

  // Step 3: text from Google Docs (Lc = {}) may flow to the Wiki.
  policy_.onSegmentObserved("gdocs/doc#p0", "gdocs");
  EXPECT_TRUE(policy_.checkUpload("gdocs/doc#p0", "wiki").allowed);
}

TEST_F(PolicyTest, Figure4TagSuppression) {
  policy_.onSegmentObserved("itool/doc#p0", "itool");
  ASSERT_FALSE(policy_.checkUpload("itool/doc#p0", "wiki").allowed);

  // The user suppresses ti with a justification; the upload then succeeds.
  const auto st = policy_.suppressTag("alice", "itool/doc#p0", "ti",
                                      "sharing interview guidelines");
  ASSERT_TRUE(st.ok()) << st.errorMessage();
  EXPECT_TRUE(policy_.checkUpload("itool/doc#p0", "wiki").allowed);

  // The suppression left an audit record with user and justification.
  const auto records =
      policy_.audit().byKind(AuditRecord::Kind::kTagSuppressed);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].user, "alice");
  EXPECT_EQ(records[0].tag, "ti");
  EXPECT_EQ(records[0].justification, "sharing interview guidelines");

  // The tag remains attached to the label.
  EXPECT_TRUE(policy_.labelOf("itool/doc#p0")->suppressedTags().contains("ti"));
}

TEST_F(PolicyTest, SuppressionIsPerSegment) {
  // "each time a user wishes to declassify the same text segment, they need
  //  to explicitly perform a tag suppression" — other segments with the
  //  same tag remain restricted.
  policy_.onSegmentObserved("itool/a#p0", "itool");
  policy_.onSegmentObserved("itool/b#p0", "itool");
  ASSERT_TRUE(policy_.suppressTag("alice", "itool/a#p0", "ti", "ok").ok());
  EXPECT_TRUE(policy_.checkUpload("itool/a#p0", "wiki").allowed);
  EXPECT_FALSE(policy_.checkUpload("itool/b#p0", "wiki").allowed);
}

TEST_F(PolicyTest, SuppressUnknownSegmentFails) {
  EXPECT_FALSE(policy_.suppressTag("alice", "nope", "ti", "x").ok());
}

TEST_F(PolicyTest, SuppressInactiveTagFails) {
  policy_.onSegmentObserved("wiki/p#p0", "wiki");
  EXPECT_FALSE(policy_.suppressTag("alice", "wiki/p#p0", "ti", "x").ok());
}

TEST_F(PolicyTest, Figure5CustomTags) {
  // Admin extended the Interview Tool's privileges with tw.
  policy_.services().addPrivilegeTag("itool", "tw");
  policy_.onSegmentObserved("wiki/secret#p0", "wiki");
  // Wiki data may now reach the Interview Tool...
  ASSERT_TRUE(policy_.checkUpload("wiki/secret#p0", "itool").allowed);

  // ...until a user protects the segment with a custom tag tn.
  ASSERT_TRUE(policy_.allocateCustomTag("bob", "tn").ok());
  ASSERT_TRUE(policy_.addCustomTagToSegment("bob", "wiki/secret#p0", "tn").ok());

  // The Wiki already stores the segment, so its Lp gained tn automatically
  // (step 2 of Fig. 5) — the segment still lives happily where it is.
  EXPECT_TRUE(policy_.checkUpload("wiki/secret#p0", "wiki").allowed);
  // But the Interview Tool did not get tn: flow now denied (step 3).
  EXPECT_FALSE(policy_.checkUpload("wiki/secret#p0", "itool").allowed);

  // The owner can later grant the Interview Tool the privilege.
  ASSERT_TRUE(policy_.setServicePrivilege("bob", "itool", "tn", true).ok());
  EXPECT_TRUE(policy_.checkUpload("wiki/secret#p0", "itool").allowed);
}

TEST_F(PolicyTest, CustomTagOwnershipEnforced) {
  ASSERT_TRUE(policy_.allocateCustomTag("bob", "tn").ok());
  EXPECT_FALSE(policy_.allocateCustomTag("eve", "tn").ok());  // taken
  policy_.onSegmentObserved("wiki/x#p0", "wiki");
  EXPECT_FALSE(policy_.addCustomTagToSegment("eve", "wiki/x#p0", "tn").ok());
  EXPECT_FALSE(policy_.setServicePrivilege("eve", "wiki", "tn", true).ok());
  EXPECT_EQ(policy_.customTagOwner("tn"), "bob");
  EXPECT_EQ(policy_.customTagOwner("other"), "");
}

TEST_F(PolicyTest, NonCustomTagCannotBeManaged) {
  policy_.onSegmentObserved("wiki/x#p0", "wiki");
  EXPECT_FALSE(policy_.addCustomTagToSegment("bob", "wiki/x#p0", "ti").ok());
  EXPECT_FALSE(policy_.setServicePrivilege("bob", "wiki", "ti", true).ok());
}

TEST_F(PolicyTest, Figure6ImplicitTagsRetireStaleTaint) {
  // Wiki may receive Interview Tool data; Google Docs may receive Wiki
  // data but NOT Interview Tool data.
  policy_.services().upsert(
      {"wiki", "Internal Wiki", TagSet{"tw", "ti"}, TagSet{"tw"}});
  policy_.services().upsert(
      {"gdocs", "Google Docs", TagSet{"tw"}, TagSet{}});

  // Segment A in the Interview Tool; B in the Wiki.
  policy_.onSegmentObserved("itool/A#p0", "itool");
  policy_.onSegmentObserved("wiki/B#p0", "wiki");

  // Step 1: B is edited to disclose A — A's explicit {ti} becomes implicit
  // on B. B's label is now {tw, (ti)}.
  policy_.refreshImplicitTags("wiki/B#p0", {"itool/A#p0"});
  const Label* b = policy_.labelOf("wiki/B#p0");
  EXPECT_TRUE(b->implicitTags().contains("ti"));

  // While similar, B cannot flow to Google Docs ({tw,ti} ⊄ {tw}).
  EXPECT_FALSE(policy_.checkUpload("wiki/B#p0", "gdocs").allowed);

  // Step 3: text copied from B to segment C in Google Docs AFTER A lost
  // all resemblance — the tracker then reports only B as a source, and
  // only B's EXPLICIT tags propagate. C gets {tw} implicit, not ti.
  policy_.onSegmentObserved("gdocs/C#p0", "gdocs");
  policy_.refreshImplicitTags("gdocs/C#p0", {"wiki/B#p0"});
  const Label* c = policy_.labelOf("gdocs/C#p0");
  EXPECT_TRUE(c->implicitTags().contains("tw"));
  EXPECT_FALSE(c->implicitTags().contains("ti"))
      << "outdated taint must not propagate transitively";
  // C with {tw} may flow to Google Docs, whose Lp is {tw}.
  EXPECT_TRUE(policy_.checkUpload("gdocs/C#p0", "gdocs").allowed);
}

TEST_F(PolicyTest, UnknownServiceTreatedAsUntrusted) {
  policy_.onSegmentObserved("itool/doc#p0", "itool");
  // Uploading tagged data to a service nobody registered: Lp = {} — denied.
  EXPECT_FALSE(policy_.checkUpload("itool/doc#p0", "evil.example").allowed);
  // Text created in an unknown service carries no tags.
  const Label& l = policy_.onSegmentObserved("unknown/x#p0", "unknown.example");
  EXPECT_TRUE(l.effectiveTags().empty());
}

TEST_F(PolicyTest, NeverObservedSegmentIsPublic) {
  EXPECT_TRUE(policy_.checkUpload("ghost#p0", "gdocs").allowed);
}

TEST_F(PolicyTest, FirstObservationWins) {
  // A segment observed first in the Interview Tool keeps {ti} even when
  // later seen in the Wiki; only presence is added.
  policy_.onSegmentObserved("seg#p0", "itool");
  policy_.onSegmentObserved("seg#p0", "wiki");
  const Label* l = policy_.labelOf("seg#p0");
  EXPECT_TRUE(l->explicitTags().contains("ti"));
  EXPECT_FALSE(l->explicitTags().contains("tw"));
  const auto where = policy_.servicesStoring("seg#p0");
  EXPECT_EQ(where.size(), 2u);
}

TEST_F(PolicyTest, ForgetSegment) {
  policy_.onSegmentObserved("seg#p0", "itool");
  policy_.forgetSegment("seg#p0");
  EXPECT_EQ(policy_.labelOf("seg#p0"), nullptr);
  EXPECT_TRUE(policy_.servicesStoring("seg#p0").empty());
}

TEST_F(PolicyTest, AuditQueriesByUserAndKind) {
  policy_.onSegmentObserved("itool/a#p0", "itool");
  ASSERT_TRUE(policy_.suppressTag("alice", "itool/a#p0", "ti", "j1").ok());
  ASSERT_TRUE(policy_.allocateCustomTag("bob", "tn").ok());
  EXPECT_EQ(policy_.audit().byUser("alice").size(), 1u);
  EXPECT_EQ(policy_.audit().byUser("bob").size(), 1u);
  EXPECT_EQ(
      policy_.audit().byKind(AuditRecord::Kind::kCustomTagAllocated).size(),
      1u);
  EXPECT_EQ(policy_.audit().size(), 2u);
}

TEST_F(PolicyTest, PropagateFromUnlabelledSourceIsNoop) {
  policy_.onSegmentObserved("gdocs/C#p0", "gdocs");
  policy_.refreshImplicitTags("gdocs/C#p0", {"never-seen"});
  EXPECT_TRUE(policy_.labelOf("gdocs/C#p0")->implicitTags().empty());
}

}  // namespace
}  // namespace bf::tdm
