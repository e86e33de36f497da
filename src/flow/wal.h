// Write-ahead log + checkpointing for the flow tracker (DESIGN.md §11, §13).
//
// The snapshot layer (flow/snapshot.h) persists state only when someone
// calls saveSnapshot(); everything observed since the last save dies with
// the process. This module closes that window with the classic
// checkpoint-plus-log design:
//
//  - every tracker mutation appends one CRC32C-framed record to an
//    append-only WAL file (the append runs inside the tracker's exclusive
//    lock section, so the log order IS the mutation order);
//  - recovery loads the newest valid checkpoint (snapshot v4), then
//    replays the WAL tail in sequence order, discarding the first torn or
//    corrupt frame and everything after it — the recovered state is always
//    a prefix of the pre-crash history, never a mix;
//  - a monotonic sequence number links the two: a checkpoint written at
//    sequence S makes every record with sequence <= S redundant, so the
//    log can be rotated.
//
// WAL file layout (little-endian):
//   header : 8-byte magic "BFWAL002" + u64 baseSequence
//   frame  : u32 payloadLen | u32 maskedCrc32c(payload) | payload
//   payload: u64 sequence | u8 recordType | type-specific body
// kSegmentObserved's body is the segment record as a snapshot stores it
// (flow::putSegmentRecord): u64 id | u8 kind | name | document | service |
// f64 threshold | u64 createdAt | u64 updatedAt | u64 gram count |
// (u32 hash, u32 pos)*.
// Any other header, BFWAL001 included, is discarded whole.
//
// The CRC is masked (util/crc32c.h) so a frame whose payload happens to
// contain a valid frame image still fails verification when the framing
// shifts. A frame is discarded — together with everything after it — when
// it is torn (fewer bytes than the header promises), its CRC mismatches,
// its type is unknown (the retired types 2 and 5 included), its body does
// not parse exactly or holds an out-of-range value, or its sequence breaks
// continuity.
//
// Durability levels: frames buffer in user space and reach the kernel once
// 64 KiB accumulates, on sync()/rotate()/close(), or on every append with
// syncEachAppend (bench_recovery measures the fsync cost); fsync runs at
// those same boundaries. The guarantee was always fsync-granularity —
// buffering narrows only the window against a SIGKILL between checkpoints,
// and keeps the append cost off the per-keystroke decision path.
//
// Failure model (DESIGN.md §13): a failed append, flush or fsync NEVER
// fails the tracker mutation — availability over durability. The log
// latches unhealthy, the file is POISONED (closed and abandoned; a
// partially-written tail is exactly what recovery's CRC/continuity checks
// are built to discard) and every record that could not be made durable is
// counted in bf_wal_records_lost_total (an upper bound, never reset).
// Sequences stay MONOTONIC: a dropped record still consumes its sequence
// number, so the in-memory tracker and the sequence space never diverge —
// the repair checkpoint (DurabilityManager) snapshots the full in-memory
// state at the last assigned sequence, which re-covers the lost records and
// re-establishes a durable prefix. All file I/O flows through the bf::io
// Vfs seam so storage faults are injectable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flow/segment_db.h"
#include "flow/tracker.h"
#include "io/vfs.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace bf::flow {

/// Numbers 2 and 5 are retired (a restored association and an eviction
/// cutoff); replay treats them as corrupt like any unknown type.
enum class WalRecordType : std::uint8_t {
  kSegmentObserved = 1,   ///< full post-mutation segment record + grams
  kSegmentRemoved = 3,    ///< segment id
  kThresholdChanged = 4,  ///< segment name + new threshold
};

/// Append-only log of tracker mutations. Thread-safe (own mutex, rank
/// util::kRankWal — nests inside the tracker's lock, whose exclusive
/// sections are where every append originates).
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// One-lock view of the log for the decision-path maintenance check.
  struct Stats {
    /// False after any append/open failure since the last successful
    /// open/rotate. An unhealthy log keeps accepting (and dropping)
    /// appends; dropped appends still consume sequence numbers.
    bool healthy = false;
    /// Sequence the NEXT appended record will get. Monotonic across
    /// failures: dropped records consume sequences too.
    std::uint64_t nextSequence = 0;
    /// Records appended (successfully) since open/rotate.
    std::uint64_t appended = 0;
  };

  /// Creates (or truncates) the log file at `path` and writes the header.
  /// Records appended afterwards get sequences baseSequence+1, +2, ...
  /// `vfs` routes the file I/O (null = io::defaultVfs()); it must outlive
  /// the log.
  [[nodiscard]] util::Status open(const std::string& path,
                                  std::uint64_t baseSequence,
                                  bool syncEachAppend,
                                  io::Vfs* vfs = nullptr) BF_EXCLUDES(mutex_);

  /// fsync + close; further appends are dropped (and counted as failures).
  void close() BF_EXCLUDES(mutex_);

  /// Closes the current file and opens a fresh one (checkpoint rotation).
  [[nodiscard]] util::Status rotate(const std::string& path,
                                    std::uint64_t baseSequence)
      BF_EXCLUDES(mutex_);

  // ---- Emission (called from the tracker's exclusive sections) ------------

  void logSegmentObserved(const SegmentRecord& rec) BF_EXCLUDES(mutex_);
  void logSegmentRemoved(SegmentId id) BF_EXCLUDES(mutex_);
  void logThresholdChanged(std::string_view name, double threshold)
      BF_EXCLUDES(mutex_);

  /// fsync the log file (checkpoint boundary / explicit durability point).
  [[nodiscard]] util::Status sync() BF_EXCLUDES(mutex_);

  // ---- Introspection ------------------------------------------------------

  /// The log's state in one lock acquisition (the decision-path
  /// maintenance fast path reads it once per decision).
  [[nodiscard]] Stats stats() const BF_EXCLUDES(mutex_);

 private:
  void append(WalRecordType type, const std::string& body)
      BF_EXCLUDES(mutex_);
  /// write()s the user-space frame buffer. On failure the buffered frames
  /// are counted lost, the file is poisoned (closed and abandoned — its
  /// tail may be torn) and the log latches unhealthy. Sequences are NOT
  /// rolled back. Returns false on failure.
  bool flushLocked() BF_REQUIRES(mutex_);
  void closeLocked() BF_REQUIRES(mutex_);
  /// Drops the current file after a write/fsync failure: the next
  /// checkpoint rotation supersedes it, and replay handles its torn tail.
  void poisonLocked() BF_REQUIRES(mutex_);

  mutable util::Mutex mutex_{util::kRankWal, "WriteAheadLog.mutex_"};
  io::Vfs* vfs_ BF_GUARDED_BY(mutex_) = nullptr;
  std::unique_ptr<io::File> file_ BF_GUARDED_BY(mutex_);
  std::string path_ BF_GUARDED_BY(mutex_);
  std::uint64_t nextSeq_ BF_GUARDED_BY(mutex_) = 1;
  std::uint64_t appended_ BF_GUARDED_BY(mutex_) = 0;
  bool syncEachAppend_ BF_GUARDED_BY(mutex_) = false;
  bool healthy_ BF_GUARDED_BY(mutex_) = false;
  std::string buffer_ BF_GUARDED_BY(mutex_);  ///< frames not yet write()n
  std::uint64_t bufferedRecords_ BF_GUARDED_BY(mutex_) = 0;
};

/// Outcome of replaying one WAL file into a tracker.
struct WalReplayResult {
  std::uint64_t applied = 0;         ///< records applied to the tracker
  std::uint64_t skipped = 0;         ///< valid records below nextExpected
  std::uint64_t discardedBytes = 0;  ///< bytes after the first bad frame
  std::uint64_t lastSequence = 0;    ///< highest sequence applied or skipped
  util::Timestamp maxTimestamp = 0;  ///< largest timestamp in applied records
  bool sawCorruption = false;        ///< hit a torn/corrupt frame or seq gap
};

/// Replays the WAL file at `path` into `tracker`: applies every valid
/// record from `nextExpected` on, in order, requiring exact sequence
/// continuity (records below it are skipped as already covered by the
/// checkpoint). Stops at the first torn/corrupt frame or sequence gap;
/// everything after it is counted in discardedBytes. The tracker's WAL
/// should be detached while replaying (recovery must not re-log its own
/// replay). `vfs` routes the read (null = defaultVfs()).
[[nodiscard]] WalReplayResult replayWalFile(
    FlowTracker& tracker, const std::string& path, std::uint64_t nextExpected,
    io::Vfs* vfs = nullptr);

/// Durability health (DESIGN.md §13). Values double as the bf_wal_health
/// gauge encoding, so keep them stable.
enum class DurabilityHealth : std::uint8_t {
  kHealthy = 0,    ///< appends durable, checkpoints succeeding
  kDegraded = 1,   ///< storage failing; mutations continue, durability lost
  kRecovering = 2, ///< a repair attempt is in flight
};

/// Configuration of the durability manager.
struct DurabilityConfig {
  /// Directory holding checkpoint-<seq>.bfc and wal-<seq>.bfw files
  /// (created if missing).
  std::string directory;
  /// Snapshot encryption secret (empty = plaintext checkpoints).
  std::string secret;
  /// maintain() rolls a new checkpoint once this many records have been
  /// appended since the last one.
  std::uint64_t checkpointEveryRecords = 4096;
  /// fsync the WAL on every append (maximum durability; bench_recovery
  /// quantifies the cost) instead of only at checkpoint boundaries.
  bool syncEachAppend = false;
  /// Checkpoint/WAL generations kept after every checkpoint attempt whose
  /// snapshot landed, whether or not the log then rotated. 2 makes a
  /// corrupt newest checkpoint self-healing (the previous checkpoint plus
  /// both logs replay to the same state). 0 keeps everything (the fuzz
  /// harness's oracle mode).
  std::size_t keepGenerations = 2;
  /// Routes all checkpoint/WAL/directory I/O (null = io::defaultVfs());
  /// must outlive the manager. FaultVfs goes here in the chaos suites.
  io::Vfs* vfs = nullptr;
  /// Decorrelated-jitter backoff between repair attempts while degraded
  /// (util/retry.h; measured on a monotonic stopwatch, never slept).
  /// Repair retries indefinitely — self-healing is the contract — but
  /// never faster than this.
  double repairBaseDelayMs = 50.0;
  double repairMaxDelayMs = 2000.0;
};

/// What recovery found and did.
struct RecoveryStats {
  std::uint64_t checkpointSequence = 0;  ///< sequence of the loaded checkpoint
  std::uint64_t replayedRecords = 0;     ///< WAL records applied
  std::uint64_t discardedBytes = 0;      ///< bytes dropped at the torn tail
  std::uint64_t lastSequence = 0;        ///< sequence of the recovered state
  util::Timestamp maxTimestamp = 0;      ///< advance the clock past this
  bool usedFallbackCheckpoint = false;   ///< newest checkpoint was corrupt
  double replayMillis = 0.0;             ///< load + replay wall time
};

/// Owns the WAL + checkpoint lifecycle for one tracker.
///
/// Thread safety: recoverAndAttach(), checkpoint() and maintain() require
/// QUIESCED tracker mutations — the same external-serialisation contract
/// as flow::exportState() (the engine's lockState() provides it on the
/// decision path). The WAL itself is internally synchronised, so tracker
/// mutations from any thread log safely between those calls.
///
/// Self-healing (DESIGN.md §13): health() runs the state machine
/// Healthy → Degraded → Recovering → Healthy. A WAL append/flush/fsync
/// failure or a failed checkpoint degrades the manager; maintain() then
/// schedules repair attempts on decorrelated-jitter backoff. A repair IS
/// an emergency checkpoint: the full in-memory state — including every
/// record the WAL dropped — is snapshotted at the last assigned sequence
/// and the log rotates to a fresh segment, re-establishing a durable
/// prefix. Repair retries indefinitely; an unrecoverable store degrades
/// durability forever but never blocks a tracker mutation.
class DurabilityManager {
 public:
  explicit DurabilityManager(DurabilityConfig config);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Recovers `tracker` (which must be empty) from the directory: newest
  /// valid checkpoint, then the WAL tail. Afterwards writes a fresh
  /// checkpoint, rotates the log, prunes old generations, and attaches the
  /// WAL to the tracker so new mutations are logged. The caller must
  /// advance the tracker's clock past RecoveryStats::maxTimestamp.
  [[nodiscard]] util::Result<RecoveryStats> recoverAndAttach(
      FlowTracker& tracker);

  /// Writes a checkpoint of the tracker's current state, rotates the WAL
  /// and prunes old generations. Mutations must be quiesced. Success
  /// re-establishes a durable prefix and restores kHealthy. Pruning runs
  /// whenever the snapshot landed, even if the rotation then failed, so a
  /// repair storm never holds more than keepGenerations checkpoints.
  [[nodiscard]] util::Status checkpoint(const FlowTracker& tracker);

  /// The decision-path maintenance hook: periodic checkpoints while
  /// healthy, backoff-paced repair attempts while degraded. Cheap when
  /// nothing is due (one WAL lock acquisition). Mutations must be
  /// quiesced, same as checkpoint(). Returns the repair/checkpoint
  /// outcome (ok when nothing was attempted).
  [[nodiscard]] util::Status maintain(const FlowTracker& tracker);

  /// Current durability health (the bf_wal_health gauge value).
  [[nodiscard]] DurabilityHealth health() const noexcept { return health_; }

  /// Healthy = attached, WAL accepting appends, last checkpoint succeeded
  /// and no repair pending. An unhealthy manager never blocks tracker
  /// mutations.
  [[nodiscard]] bool healthy() const;

  [[nodiscard]] WriteAheadLog& wal() noexcept { return wal_; }

 private:
  [[nodiscard]] io::Vfs& vfs() const noexcept;
  [[nodiscard]] std::string checkpointPath(std::uint64_t seq) const;
  [[nodiscard]] std::string walPath(std::uint64_t seq) const;
  /// Keeps the newest keepGenerations checkpoints and the logs that roll
  /// them forward; never removes wal-<currentSeq>.
  void pruneGenerations(std::uint64_t currentSeq);
  void enterDegraded();
  /// One repair attempt: emergency checkpoint + rotation.
  [[nodiscard]] util::Status attemptRepair(const FlowTracker& tracker);

  DurabilityConfig config_;
  WriteAheadLog wal_;
  bool attached_ = false;
  bool lastCheckpointOk_ = true;

  // Repair state machine (driven from maintain(); same quiesced-caller
  // contract as checkpoint(), so plain members suffice).
  DurabilityHealth health_ = DurabilityHealth::kHealthy;
  util::Rng repairRng_{0};
  util::Backoff repairBackoff_;
  util::Stopwatch repairWatch_;
  double nextRepairDelayMs_ = 0.0;
};

}  // namespace bf::flow
