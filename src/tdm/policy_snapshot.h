// Policy snapshot: persistence for the TDM policy state.
//
// Complements the flow tracker's fingerprint snapshot (flow/snapshot.h):
// together they let an enterprise deployment restart without losing
// segment labels, user suppressions, custom-tag ownership, service
// definitions or the audit trail. Serialization uses the same
// little-endian format. The blob is not a file format of its own:
// core::saveDeployment frames it beside the tracker's blob and writes both
// through flow::writeSealedFile, which adds crash-safe replacement and
// encryption + authentication at rest.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tdm/policy.h"
#include "util/result.h"

namespace bf::tdm {

/// Serialises services (Lp/Lc), segment labels (explicit/implicit/
/// suppressed), presence records, custom-tag ownership and the audit log.
/// Deterministic: equal states produce equal blobs.
[[nodiscard]] std::string exportPolicy(const TdmPolicy& policy);

/// An exportPolicy() blob parsed in full and checked against an empty
/// policy, not yet applied. A load that restores more than one store
/// stages every blob before it changes any store (core::loadDeployment).
struct StagedPolicy {
  std::vector<ServiceInfo> services;
  std::vector<std::pair<std::string, Label>> labels;
  std::vector<std::pair<std::string, std::set<std::string>>> presence;
  std::vector<std::pair<Tag, std::string>> customTags;
  std::vector<AuditRecord> audit;
};

/// Parses `blob` for `policy`, which must be empty (freshly constructed).
/// Fails on a non-empty policy and on anything but a complete
/// exportPolicy() blob. Changes nothing.
[[nodiscard]] util::Result<StagedPolicy> stagePolicy(const TdmPolicy& policy,
                                                     std::string_view blob);

/// Applies a stagePolicy() result to the policy it was staged for, which
/// must still be empty.
void applyPolicy(TdmPolicy& policy, StagedPolicy staged);

}  // namespace bf::tdm
