// Deployment persistence: one encrypted file holding the full BrowserFlow
// state — fingerprint stores (flow/snapshot.h) AND policy state
// (tdm/policy_snapshot.h) — so an enterprise install survives restarts
// with labels, suppressions, custom tags and the audit trail intact.
//
// Format "BFDEPS2\n": magic + putStr(exportState) + putStr(exportPolicy)
// + masked CRC32C trailer (util::appendCrc32cTrailer), checked before
// anything is imported. The file goes through flow::writeSealedFile /
// readSealedFile, the same crash-safe, authenticated path as snapshots.
#pragma once

#include <string>

#include "core/plugin.h"
#include "util/result.h"

namespace bf::core {

/// Writes the plug-in's tracker + policy state to `path` (temp file, fsync,
/// atomic rename). With a non-empty `secret` the payload is encrypted and
/// authenticated at rest (paper S4.4).
[[nodiscard]] util::Status saveDeployment(BrowserFlowPlugin& plugin,
                                          const std::string& path,
                                          std::string_view secret);

/// Restores a file written by saveDeployment() into a freshly constructed
/// plug-in (empty tracker and policy). All or nothing: a file that fails
/// its tag or CRC, a file of another kind (a snapshot, say) and a file
/// whose tracker or policy blob does not parse in full all leave both
/// stores unchanged. Returns the largest timestamp in the snapshot;
/// the caller must advance the plug-in's clock past it.
[[nodiscard]] util::Result<util::Timestamp> loadDeployment(
    BrowserFlowPlugin& plugin, const std::string& path,
    std::string_view secret);

}  // namespace bf::core
