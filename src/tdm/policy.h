// TdmPolicy — the Text Disclosure Model policy engine (paper S3).
//
// Combines the service registry (Lp/Lc), per-segment labels, user
// declassification (tag suppression), custom tag allocation and the audit
// log. The flow rule enforced on every upload:
//
//   "A text segment with label Li should be released to a service with
//    privilege label Lp only if Li ⊆ Lp."
//
// This module is deliberately independent of the similarity tracker: it
// reasons purely over labels. The decision engine connects the two: after
// each lookup it calls refreshImplicitTags() with the full set of segments
// the FlowTracker found the text to disclose.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tdm/audit.h"
#include "tdm/label.h"
#include "tdm/service_registry.h"
#include "util/clock.h"
#include "util/result.h"

namespace bf::tdm {

/// Result of checking a (label, destination service) pair.
struct UploadDecision {
  /// True iff effective(label) ⊆ Lp(service).
  bool allowed = true;
  /// The effective tags missing from the service's privilege label — the
  /// tags the user would have to suppress to proceed.
  std::vector<Tag> violatingTags;
  /// The label that was checked (after suppressions).
  Label label;
};

class TdmPolicy {
 public:
  /// `clock` stamps audit records; not owned.
  explicit TdmPolicy(util::Clock* clock) : clock_(clock) {}

  /// Administrator-facing service configuration.
  [[nodiscard]] ServiceRegistry& services() noexcept { return services_; }
  [[nodiscard]] const ServiceRegistry& services() const noexcept {
    return services_;
  }

  // ---- Segment label lifecycle --------------------------------------------

  /// Called when a segment is first observed in a service: assigns the
  /// service's confidentiality label Lc as the segment's explicit tags
  /// (paper S3.1, step 1 of Fig. 3) and records the segment's presence in
  /// that service. If the segment already has a label, only presence is
  /// recorded. Returns the (possibly pre-existing) label.
  const Label& onSegmentObserved(std::string_view segmentName,
                                 std::string_view serviceId);

  /// The label of a segment; nullptr if the segment was never observed.
  [[nodiscard]] const Label* labelOf(std::string_view segmentName) const;

  /// Services that have been observed storing the segment.
  [[nodiscard]] std::vector<std::string> servicesStoring(
      std::string_view segmentName) const;

  /// Drops a segment's label and presence records (e.g. after deletion).
  void forgetSegment(std::string_view segmentName);

  // ---- Disclosure-driven propagation (S3.2) --------------------------------

  /// Recomputes `destSegment`'s implicit tags from the full current set of
  /// disclosing sources: each source's EXPLICIT tags are attached to the
  /// destination as IMPLICIT tags. Implicit tags do not propagate further,
  /// which is what retires outdated taints (paper Fig. 6). Previous
  /// implicit tags are dropped first, so a segment edited until it no
  /// longer discloses a source sheds that source's taint (the "decreased
  /// information disclosure" requirement of S1). Explicit and suppressed
  /// tags are untouched.
  void refreshImplicitTags(std::string_view destSegment,
                           const std::vector<std::string>& sourceSegments);

  /// Attaches one implicit tag directly (used by the secret guard, whose
  /// "sources" are registered secrets rather than segments). Subject to
  /// the same refresh lifecycle as disclosure-derived implicit tags.
  void addImplicitTag(std::string_view segmentName, const Tag& tag);

  // ---- Checks ---------------------------------------------------------------

  /// Flow check for a labelled segment uploading to `serviceId`. Unknown
  /// services are treated as untrusted externals with Lp = {}.
  [[nodiscard]] UploadDecision checkUpload(std::string_view segmentName,
                                           std::string_view serviceId) const;

  /// Flow check for an ad-hoc label (e.g. one synthesised from disclosure
  /// hits for not-yet-registered text).
  [[nodiscard]] UploadDecision checkLabel(const Label& label,
                                          std::string_view serviceId) const;

  // ---- User operations -------------------------------------------------------

  /// Declassification: suppress `tag` on one segment. The tag stays
  /// attached (audit), but is ignored in subset comparisons. Per the paper,
  /// suppression is case-by-case: it applies to this segment only, not to
  /// future copies.
  util::Status suppressTag(std::string_view user,
                           std::string_view segmentName, const Tag& tag,
                           std::string_view justification);

  /// Allocates a custom tag owned by `user` (S3.1 "Custom tag allocation").
  /// Fails if the tag already exists.
  util::Status allocateCustomTag(std::string_view user, const Tag& tag);

  /// Adds a custom tag to a segment's explicit label. Per the TDM rule,
  /// every service already storing the segment automatically receives the
  /// tag in its privilege label (so existing copies are not retroactively
  /// cut off). Only the tag's owner may do this.
  util::Status addCustomTagToSegment(std::string_view user,
                                     std::string_view segmentName,
                                     const Tag& tag);

  /// Grants/revokes a custom tag in a service's privilege label. Only the
  /// tag's owner controls which services may process data carrying it.
  util::Status setServicePrivilege(std::string_view user,
                                   std::string_view serviceId, const Tag& tag,
                                   bool grant);

  /// Owner of a custom tag, or empty if not a custom tag.
  [[nodiscard]] std::string customTagOwner(const Tag& tag) const;

  /// Appends a kDecisionDegraded audit record: the decision engine's
  /// durability health flipped while deciding for `segmentName` →
  /// `serviceId` (`reason` says which way — durability-degraded or
  /// durability-restored). The verdict itself ran the full pipeline. The
  /// policy owns the clock, so callers never have to timestamp.
  void recordDegradedDecision(std::string_view segmentName,
                              std::string_view serviceId,
                              std::string_view reason);

  [[nodiscard]] const AuditLog& audit() const noexcept { return audit_; }
  [[nodiscard]] AuditLog& audit() noexcept { return audit_; }

  // ---- Snapshot support (tdm/policy_snapshot.h) ------------------------------

  /// Read access to the full label / presence / custom-tag state for
  /// serialization.
  [[nodiscard]] const std::unordered_map<std::string, Label>& allLabels()
      const noexcept {
    return labels_;
  }
  [[nodiscard]] const std::unordered_map<std::string, std::set<std::string>>&
  allPresence() const noexcept {
    return presence_;
  }
  [[nodiscard]] const std::unordered_map<Tag, std::string>& allCustomTags()
      const noexcept {
    return customTagOwners_;
  }

  /// Restores serialized state (import into an empty policy).
  void restoreLabel(std::string name, Label label) {
    labels_[std::move(name)] = std::move(label);
  }
  void restorePresence(std::string name, std::set<std::string> services) {
    presence_[std::move(name)] = std::move(services);
  }
  void restoreCustomTag(Tag tag, std::string owner) {
    customTagOwners_[std::move(tag)] = std::move(owner);
  }

 private:
  [[nodiscard]] TagSet privilegeOf(std::string_view serviceId) const;

  util::Clock* clock_;
  ServiceRegistry services_;
  std::unordered_map<std::string, Label> labels_;
  std::unordered_map<std::string, std::set<std::string>> presence_;
  std::unordered_map<Tag, std::string> customTagOwners_;
  AuditLog audit_;
};

}  // namespace bf::tdm
