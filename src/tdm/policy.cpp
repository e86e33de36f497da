#include "tdm/policy.h"

namespace bf::tdm {

const Label& TdmPolicy::onSegmentObserved(std::string_view segmentName,
                                          std::string_view serviceId) {
  const std::string name(segmentName);
  presence_[name].insert(std::string(serviceId));
  auto it = labels_.find(name);
  if (it == labels_.end()) {
    const ServiceInfo* svc = services_.find(serviceId);
    Label label = Label::fromExplicit(svc != nullptr ? svc->confidentiality
                                                     : TagSet{});
    it = labels_.emplace(name, std::move(label)).first;
  }
  return it->second;
}

const Label* TdmPolicy::labelOf(std::string_view segmentName) const {
  auto it = labels_.find(std::string(segmentName));
  return it == labels_.end() ? nullptr : &it->second;
}

std::vector<std::string> TdmPolicy::servicesStoring(
    std::string_view segmentName) const {
  std::vector<std::string> out;
  auto it = presence_.find(std::string(segmentName));
  if (it == presence_.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  return out;
}

void TdmPolicy::forgetSegment(std::string_view segmentName) {
  labels_.erase(std::string(segmentName));
  presence_.erase(std::string(segmentName));
}

void TdmPolicy::refreshImplicitTags(
    std::string_view destSegment,
    const std::vector<std::string>& sourceSegments) {
  Label& dst = labels_[std::string(destSegment)];
  dst.clearImplicit();
  for (const std::string& src : sourceSegments) {
    auto it = labels_.find(src);
    if (it != labels_.end()) dst.addImplicitAll(it->second.propagatableTags());
  }
}

void TdmPolicy::addImplicitTag(std::string_view segmentName, const Tag& tag) {
  labels_[std::string(segmentName)].addImplicit(tag);
}

TagSet TdmPolicy::privilegeOf(std::string_view serviceId) const {
  const ServiceInfo* svc = services_.find(serviceId);
  return svc != nullptr ? svc->privilege : TagSet{};
}

UploadDecision TdmPolicy::checkUpload(std::string_view segmentName,
                                      std::string_view serviceId) const {
  const Label* label = labelOf(segmentName);
  if (label == nullptr) {
    // Never-observed segments carry no tags: public data, always allowed.
    return UploadDecision{};
  }
  return checkLabel(*label, serviceId);
}

UploadDecision TdmPolicy::checkLabel(const Label& label,
                                     std::string_view serviceId) const {
  UploadDecision out;
  out.label = label;
  const TagSet privilege = privilegeOf(serviceId);
  const TagSet effective = label.effectiveTags();
  out.allowed = effective.isSubsetOf(privilege);
  if (!out.allowed) out.violatingTags = effective.missingFrom(privilege);
  return out;
}

util::Status TdmPolicy::suppressTag(std::string_view user,
                                    std::string_view segmentName,
                                    const Tag& tag,
                                    std::string_view justification) {
  auto it = labels_.find(std::string(segmentName));
  if (it == labels_.end()) {
    return util::Status::error("unknown segment: " + std::string(segmentName));
  }
  Label& label = it->second;
  const TagSet effective = label.effectiveTags();
  if (!effective.contains(tag)) {
    return util::Status::error("tag '" + tag +
                               "' is not active on segment '" +
                               std::string(segmentName) + "'");
  }
  label.suppress(tag);
  audit_.append(AuditRecord{AuditRecord::Kind::kTagSuppressed, clock_->now(),
                            std::string(user), tag, std::string(segmentName),
                            /*service=*/"", std::string(justification)});
  return {};
}

void TdmPolicy::recordDegradedDecision(std::string_view segmentName,
                                       std::string_view serviceId,
                                       std::string_view reason) {
  audit_.append(AuditRecord{AuditRecord::Kind::kDecisionDegraded,
                            clock_->now(), /*user=*/"", /*tag=*/Tag{},
                            std::string(segmentName), std::string(serviceId),
                            std::string(reason)});
}

util::Status TdmPolicy::allocateCustomTag(std::string_view user,
                                          const Tag& tag) {
  if (customTagOwners_.count(tag) != 0) {
    return util::Status::error("custom tag already allocated: " + tag);
  }
  customTagOwners_.emplace(tag, std::string(user));
  audit_.append(AuditRecord{AuditRecord::Kind::kCustomTagAllocated,
                            clock_->now(), std::string(user), tag,
                            /*segment=*/"", /*service=*/"",
                            /*justification=*/""});
  return {};
}

util::Status TdmPolicy::addCustomTagToSegment(std::string_view user,
                                              std::string_view segmentName,
                                              const Tag& tag) {
  auto owner = customTagOwners_.find(tag);
  if (owner == customTagOwners_.end()) {
    return util::Status::error("not a custom tag: " + tag);
  }
  if (owner->second != user) {
    return util::Status::error("only the owner of '" + tag +
                               "' may attach it");
  }
  auto it = labels_.find(std::string(segmentName));
  if (it == labels_.end()) {
    return util::Status::error("unknown segment: " + std::string(segmentName));
  }
  it->second.addExplicit(tag);
  // TDM rule (S3.1): services that already store the segment receive the
  // tag in Lp so the model "does not restrict its propagation" where the
  // data already lives.
  for (const std::string& svc : servicesStoring(segmentName)) {
    services_.addPrivilegeTag(svc, tag);
    audit_.append(AuditRecord{AuditRecord::Kind::kPrivilegeChanged,
                              clock_->now(), std::string(user), tag,
                              std::string(segmentName), svc,
                              "auto-grant: service already stores segment"});
  }
  return {};
}

util::Status TdmPolicy::setServicePrivilege(std::string_view user,
                                            std::string_view serviceId,
                                            const Tag& tag, bool grant) {
  auto owner = customTagOwners_.find(tag);
  if (owner == customTagOwners_.end()) {
    return util::Status::error("not a custom tag: " + tag);
  }
  if (owner->second != user) {
    return util::Status::error("only the owner of '" + tag +
                               "' may manage privileges");
  }
  if (services_.find(serviceId) == nullptr) {
    return util::Status::error("unknown service: " + std::string(serviceId));
  }
  if (grant) {
    services_.addPrivilegeTag(serviceId, tag);
  } else {
    services_.removePrivilegeTag(serviceId, tag);
  }
  audit_.append(AuditRecord{AuditRecord::Kind::kPrivilegeChanged,
                            clock_->now(), std::string(user), tag,
                            /*segment=*/"", std::string(serviceId),
                            grant ? "grant" : "revoke"});
  return {};
}

std::string TdmPolicy::customTagOwner(const Tag& tag) const {
  auto it = customTagOwners_.find(tag);
  return it == customTagOwners_.end() ? std::string{} : it->second;
}

}  // namespace bf::tdm
