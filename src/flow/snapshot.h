// Snapshot: persistence for the fingerprint stores.
//
// The paper recommends protecting the long-lived fingerprint database:
// "Storing fingerprints long-term ... can introduce an additional attack
//  target if a device gets compromised. To mitigate this we recommend
//  encrypting all fingerprint data at rest and performing periodic removal
//  of old fingerprints." (S4.4)
//
// exportState()/importState() serialise the tracker's segments (with their
// fingerprints, thresholds and metadata) and all hash associations (with
// first-seen timestamps, preserving authority ordering) into a portable
// little-endian binary blob. saveSnapshot()/loadSnapshot() add the at-rest
// encryption layer and file I/O.
//
// Formats (DESIGN.md §11), the only three this code reads or writes:
//  - plain "BFSNAPP3": magic + v3 body (segment records carry a u64
//    tenant slot, always 0, associations their lastSeen retention stamp).
//    Written by exportState().
//  - sequenced "BFSNAPS3": magic + u64 checkpoint sequence + v3 body +
//    trailing masked CRC32C over everything before the trailer. The
//    sequence links a checkpoint to the write-ahead log that continues it
//    (flow/wal.h). Written by exportStateV2()/saveSnapshot().
//  - encrypted "BFSNAPE2": magic + nonce + ChaCha20(BFSNAPS3 blob) +
//    16-byte keyed tag over magic||nonce||ciphertext (crypto/mac.h),
//    verified BEFORE decryption (encrypt-then-MAC). Written by
//    saveSnapshot() when given a secret.
//
// Any other magic is rejected, including the retired v1/v2 formats
// (BFSNAPP1, BFSNAPP2 and the untagged BFSNAPE1 envelope): accepting an
// untagged envelope would let anyone strip a BFSNAPE2 file's tag and
// relabel it, bypassing authentication.
//
// Every import validates untrusted bytes before they become live records:
// unknown SegmentKind values, non-finite / out-of-range thresholds and a
// nonzero v3 tenant slot reject the whole blob (all-or-nothing, tracker
// left empty).
#pragma once

#include <cstdint>
#include <string>

#include "flow/tracker.h"
#include "io/vfs.h"
#include "util/result.h"

namespace bf::flow {

/// What a successfully imported snapshot contained.
struct SnapshotInfo {
  /// Largest timestamp in the snapshot: the caller must advance the
  /// tracker's clock past it so new observations sort after restored ones
  /// (LogicalClock::advanceTo).
  util::Timestamp maxTimestamp = 0;
  /// Checkpoint sequence number recorded at save time (0 for BFSNAPP3
  /// blobs and saves outside the durability manager). WAL records with
  /// sequence > this continue the state (flow/wal.h).
  std::uint64_t sequence = 0;
};

/// Serialises the tracker's full state as a v3 plain blob (the
/// deterministic canonical form: equal states produce equal blobs —
/// segments ordered by id, associations by hash within kind).
[[nodiscard]] std::string exportState(const FlowTracker& tracker);

/// Serialises as a v3 sequenced blob: checkpoint `sequence` + body + CRC32C
/// trailer. Deterministic like exportState().
[[nodiscard]] std::string exportStateV2(const FlowTracker& tracker,
                                        std::uint64_t sequence);

/// Restores state exported by exportState()/exportStateV2() into `tracker`,
/// which must be EMPTY (freshly constructed). Accepts BFSNAPP3 and
/// BFSNAPS3 blobs; sequenced blobs are rejected on CRC mismatch.
[[nodiscard]] util::Result<SnapshotInfo> importStateEx(FlowTracker& tracker,
                                                       std::string_view blob);

/// importStateEx() returning only the timestamp (compatibility shim).
[[nodiscard]] util::Result<util::Timestamp> importState(FlowTracker& tracker,
                                                        std::string_view blob);

/// Writes the tracker state to `path` as a BFSNAPS3 blob, encrypted with a
/// key derived from `secret` (empty secret = plaintext snapshot). Crash-safe:
/// full temp-file write + fsync + atomic rename — on ANY failure the temp
/// file is removed and the previous snapshot at `path` is untouched.
/// `sequence` is the checkpoint sequence stored in the blob (0 outside the
/// durability manager). `vfs` routes the file I/O (null = defaultVfs()).
[[nodiscard]] util::Status saveSnapshot(const FlowTracker& tracker,
                                        const std::string& path,
                                        std::string_view secret,
                                        std::uint64_t sequence = 0,
                                        io::Vfs* vfs = nullptr);

/// Loads a snapshot written by saveSnapshot() (or a bare exportState()
/// blob) into an empty tracker. Encrypted files are authenticated before
/// parsing: a bit-flipped or tag-stripped file is rejected. `vfs` routes
/// the read (null = defaultVfs()).
[[nodiscard]] util::Result<SnapshotInfo> loadSnapshotEx(
    FlowTracker& tracker, const std::string& path, std::string_view secret,
    io::Vfs* vfs = nullptr);

/// loadSnapshotEx() returning only the timestamp (compatibility shim).
[[nodiscard]] util::Result<util::Timestamp> loadSnapshot(
    FlowTracker& tracker, const std::string& path, std::string_view secret);

}  // namespace bf::flow
