#include "tdm/policy_snapshot.h"

#include <algorithm>
#include <vector>

#include "util/binary_io.h"

namespace bf::tdm {

namespace {

constexpr std::string_view kMagic = "BFPOL1\n";

void putTagSet(std::string& out, const TagSet& tags) {
  util::putU64(out, tags.size());
  for (const Tag& t : tags) util::putStr(out, t);  // already sorted
}

TagSet readTagSet(util::BinaryReader& r) {
  TagSet tags;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) tags.insert(r.str());
  return tags;
}

template <typename Map>
std::vector<typename Map::const_pointer> sortedEntries(const Map& map) {
  std::vector<typename Map::const_pointer> out;
  out.reserve(map.size());
  for (const auto& entry : map) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](auto a, auto b) { return a->first < b->first; });
  return out;
}

}  // namespace

std::string exportPolicy(const TdmPolicy& policy) {
  std::string out;
  out.append(kMagic);

  // Services.
  const auto serviceIds = policy.services().serviceIds();  // sorted
  util::putU64(out, serviceIds.size());
  for (const auto& id : serviceIds) {
    const ServiceInfo* svc = policy.services().find(id);
    util::putStr(out, svc->id);
    util::putStr(out, svc->displayName);
    putTagSet(out, svc->privilege);
    putTagSet(out, svc->confidentiality);
  }

  // Segment labels.
  const auto labels = sortedEntries(policy.allLabels());
  util::putU64(out, labels.size());
  for (const auto* entry : labels) {
    util::putStr(out, entry->first);
    putTagSet(out, entry->second.explicitTags());
    putTagSet(out, entry->second.implicitTags());
    putTagSet(out, entry->second.suppressedTags());
  }

  // Presence (segment -> services storing it).
  const auto presence = sortedEntries(policy.allPresence());
  util::putU64(out, presence.size());
  for (const auto* entry : presence) {
    util::putStr(out, entry->first);
    util::putU64(out, entry->second.size());
    for (const auto& svc : entry->second) util::putStr(out, svc);
  }

  // Custom tag ownership.
  const auto customTags = sortedEntries(policy.allCustomTags());
  util::putU64(out, customTags.size());
  for (const auto* entry : customTags) {
    util::putStr(out, entry->first);
    util::putStr(out, entry->second);
  }

  // Audit log (append order preserved).
  util::putU64(out, policy.audit().records().size());
  for (const auto& rec : policy.audit().records()) {
    util::putU8(out, static_cast<std::uint8_t>(rec.kind));
    util::putU64(out, rec.at);
    util::putStr(out, rec.user);
    util::putStr(out, rec.tag);
    util::putStr(out, rec.segment);
    util::putStr(out, rec.service);
    util::putStr(out, rec.justification);
  }
  return out;
}

util::Result<StagedPolicy> stagePolicy(const TdmPolicy& policy,
                                       std::string_view blob) {
  using R = util::Result<StagedPolicy>;
  if (!policy.allLabels().empty() || policy.services().size() != 0 ||
      policy.audit().size() != 0) {
    return R::error("a policy import requires an empty policy");
  }
  if (blob.substr(0, kMagic.size()) != kMagic) {
    return R::error("not a BrowserFlow policy snapshot");
  }
  util::BinaryReader r(blob.substr(kMagic.size()));
  StagedPolicy staged;

  const std::uint64_t serviceCount = r.u64();
  for (std::uint64_t i = 0; i < serviceCount && r.ok(); ++i) {
    ServiceInfo svc;
    svc.id = r.str();
    svc.displayName = r.str();
    svc.privilege = readTagSet(r);
    svc.confidentiality = readTagSet(r);
    if (r.ok()) staged.services.push_back(std::move(svc));
  }

  const std::uint64_t labelCount = r.u64();
  for (std::uint64_t i = 0; i < labelCount && r.ok(); ++i) {
    std::string name = r.str();
    Label label = Label::fromExplicit(readTagSet(r));
    for (const Tag& t : readTagSet(r)) label.addImplicit(t);
    for (const Tag& t : readTagSet(r)) label.suppress(t);
    if (r.ok()) staged.labels.emplace_back(std::move(name), std::move(label));
  }

  const std::uint64_t presenceCount = r.u64();
  for (std::uint64_t i = 0; i < presenceCount && r.ok(); ++i) {
    std::string name = r.str();
    std::set<std::string> services;
    const std::uint64_t n = r.u64();
    for (std::uint64_t k = 0; k < n && r.ok(); ++k) services.insert(r.str());
    if (r.ok()) {
      staged.presence.emplace_back(std::move(name), std::move(services));
    }
  }

  const std::uint64_t customCount = r.u64();
  for (std::uint64_t i = 0; i < customCount && r.ok(); ++i) {
    Tag tag = r.str();
    std::string owner = r.str();
    if (r.ok()) staged.customTags.emplace_back(std::move(tag), std::move(owner));
  }

  const std::uint64_t auditCount = r.u64();
  for (std::uint64_t i = 0; i < auditCount && r.ok(); ++i) {
    AuditRecord rec;
    rec.kind = static_cast<AuditRecord::Kind>(r.u8());
    rec.at = r.u64();
    rec.user = r.str();
    rec.tag = r.str();
    rec.segment = r.str();
    rec.service = r.str();
    rec.justification = r.str();
    if (r.ok()) staged.audit.push_back(std::move(rec));
  }

  if (!r.ok() || !r.atEnd()) {
    return R::error("policy snapshot truncated or corrupt");
  }
  return staged;
}

void applyPolicy(TdmPolicy& policy, StagedPolicy staged) {
  for (ServiceInfo& svc : staged.services) {
    policy.services().upsert(std::move(svc));
  }
  for (auto& [name, label] : staged.labels) {
    policy.restoreLabel(std::move(name), std::move(label));
  }
  for (auto& [name, services] : staged.presence) {
    policy.restorePresence(std::move(name), std::move(services));
  }
  for (auto& [tag, owner] : staged.customTags) {
    policy.restoreCustomTag(std::move(tag), std::move(owner));
  }
  for (AuditRecord& rec : staged.audit) policy.audit().append(std::move(rec));
}

}  // namespace bf::tdm
