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

#include <string>
#include <string_view>

#include "tdm/policy.h"
#include "util/result.h"

namespace bf::tdm {

/// Serialises services (Lp/Lc), segment labels (explicit/implicit/
/// suppressed), presence records, custom-tag ownership and the audit log.
/// Deterministic: equal states produce equal blobs.
[[nodiscard]] std::string exportPolicy(const TdmPolicy& policy);

/// Restores a blob from exportPolicy() into `policy`, which must be empty
/// (freshly constructed).
[[nodiscard]] util::Status importPolicy(TdmPolicy& policy,
                                        std::string_view blob);

}  // namespace bf::tdm
