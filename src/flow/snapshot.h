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
// little-endian binary blob. saveSnapshot()/loadSnapshot() add the file
// I/O and at-rest encryption through writeSealedFile()/readSealedFile(),
// the one sealed path every state file takes (deployment files too, see
// core/deployment.h).
//
// Formats (DESIGN.md §11), the only three this code reads or writes:
//  - plain "BFSNAPP4": magic + v4 body (segment records with their
//    (u32 hash, u32 pos) grams, then per kind the (u32 hash, u64 segment,
//    u64 firstSeen) association rows). Written by exportState().
//  - sequenced "BFSNAPS4": magic + u64 checkpoint sequence + v4 body +
//    trailing masked CRC32C over everything before the trailer
//    (util::appendCrc32cTrailer). The sequence links a checkpoint to the
//    write-ahead log that continues it (flow/wal.h). Written by
//    saveSnapshot().
//  - encrypted "BFSNAPE2": magic + nonce + ChaCha20(payload) + 16-byte
//    keyed tag over magic||nonce||ciphertext (crypto/mac.h), verified
//    BEFORE decryption (encrypt-then-MAC). Written by writeSealedFile()
//    when given a secret; the payload is a BFSNAPS4 blob for snapshots.
//
// Any other magic is rejected, including the retired v1-v3 formats
// (BFSNAPP1-3, BFSNAPS3 and the untagged BFSNAPE1 envelope): accepting an
// untagged envelope would let anyone strip a BFSNAPE2 file's tag and
// relabel it, bypassing authentication.
//
// Every import validates untrusted bytes before they become live records:
// unknown SegmentKind values, non-finite / out-of-range thresholds and
// rows that name no listed segment of their kind reject the whole blob
// (all-or-nothing, tracker left empty).
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
  /// Checkpoint sequence number recorded at save time (0 for BFSNAPP4
  /// blobs and saves outside the durability manager). WAL records with
  /// sequence > this continue the state (flow/wal.h).
  std::uint64_t sequence = 0;
};

/// Serialises the tracker's full state as a BFSNAPP4 blob (the
/// deterministic canonical form: equal states produce equal blobs —
/// segments ordered by id, associations by hash within kind).
[[nodiscard]] std::string exportState(const FlowTracker& tracker);

/// Restores a BFSNAPP4 or BFSNAPS4 blob into `tracker`, which must be
/// EMPTY (freshly constructed) and have no WAL attached: restores are not
/// logged, so recovery attaches the log after it imports. Sequenced blobs
/// are rejected on CRC mismatch.
[[nodiscard]] util::Result<SnapshotInfo> importState(FlowTracker& tracker,
                                                     std::string_view blob);

/// The one way a state file reaches disk. Writes `payload` to `path`
/// through `vfs` crash-safely: full temp-file write + fsync + atomic rename
/// + directory fsync; on ANY failure the temp file is removed and the
/// previous file at `path` is untouched. A non-empty `secret` seals the
/// payload in the BFSNAPE2 envelope (ChaCha20, then a keyed tag over
/// magic||nonce||ciphertext).
[[nodiscard]] util::Status writeSealedFile(io::Vfs& vfs,
                                           const std::string& path,
                                           std::string_view payload,
                                           std::string_view secret);

/// Reads a file written by writeSealedFile(). A BFSNAPE2 envelope is
/// authenticated before anything is decrypted: a bit-flipped, truncated or
/// wrong-key file is an error. Any other file is returned as is, for the
/// caller's own magic and checksum to judge.
[[nodiscard]] util::Result<std::string> readSealedFile(
    io::Vfs& vfs, const std::string& path, std::string_view secret);

/// Writes the tracker state to `path` as a BFSNAPS4 blob through
/// writeSealedFile() (empty secret = plaintext snapshot). `sequence` is the
/// checkpoint sequence stored in the blob (0 outside the durability
/// manager). `vfs` routes the file I/O (null = defaultVfs()).
[[nodiscard]] util::Status saveSnapshot(const FlowTracker& tracker,
                                        const std::string& path,
                                        std::string_view secret,
                                        std::uint64_t sequence = 0,
                                        io::Vfs* vfs = nullptr);

/// Loads a snapshot written by saveSnapshot() (or a bare exportState()
/// blob) into an empty tracker, through readSealedFile(). `vfs` routes the
/// read (null = defaultVfs()).
[[nodiscard]] util::Result<SnapshotInfo> loadSnapshot(
    FlowTracker& tracker, const std::string& path, std::string_view secret,
    io::Vfs* vfs = nullptr);

}  // namespace bf::flow
