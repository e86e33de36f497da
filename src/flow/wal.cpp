#include "flow/wal.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "flow/snapshot.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"

namespace bf::flow {

namespace {

constexpr std::string_view kWalMagic = "BFWAL002";
constexpr std::size_t kWalHeaderBytes = 8 + 8;  // magic + baseSequence
/// Frames larger than this cannot have been written by us: treat the length
/// prefix itself as corrupt instead of trusting it.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;
/// User-space frame buffer flush threshold: one write() per this many
/// bytes instead of one per record keeps the syscall off the decision
/// path (bench_stress_concurrency's wal_overhead phase).
constexpr std::size_t kFlushBytes = 64u << 10;

/// Durability metrics, resolved once (same pattern as trackerMetrics()).
struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* appendFailures;
  obs::Counter* bytesWritten;
  obs::Counter* syncs;
  obs::Counter* recordsLost;
  obs::Gauge* health;
  obs::Counter* repairs;
  obs::Counter* repairFailures;
  obs::Counter* checkpoints;
  obs::Counter* checkpointFailures;
  obs::Gauge* checkpointLastMs;
  obs::Histogram* checkpointDurationUs;
  obs::Counter* recoveryRuns;
  obs::Counter* recoveryReplayedRecords;
  obs::Counter* recoveryDiscardedBytes;
  obs::Counter* recoveryFallbacks;
  obs::Gauge* recoveryLastReplayMs;
};

const WalMetrics& walMetrics() {
  static const WalMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    WalMetrics out;
    out.appends =
        &r.counter("bf_wal_appends_total", "WAL records appended");
    out.appendFailures = &r.counter(
        "bf_wal_append_failures_total",
        "WAL appends dropped (I/O failure or injected fault); the log is "
        "unhealthy until the next successful checkpoint rotation");
    out.bytesWritten =
        &r.counter("bf_wal_bytes_written_total", "Bytes appended to the WAL");
    out.syncs = &r.counter("bf_wal_syncs_total", "WAL fsync calls");
    out.recordsLost = &r.counter(
        "bf_wal_records_lost_total",
        "Tracker mutations whose WAL record could not be made durable "
        "(upper bound; the repair checkpoint re-covers the state)");
    out.health = &r.gauge(
        "bf_wal_health",
        "Durability health: 0 healthy, 1 degraded, 2 recovering");
    out.repairs = &r.counter(
        "bf_wal_repairs_total",
        "Successful durability repairs (emergency checkpoint + rotation)");
    out.repairFailures = &r.counter("bf_wal_repair_failures_total",
                                    "Durability repair attempts that failed");
    out.checkpoints =
        &r.counter("bf_checkpoints_total", "Durability checkpoints written");
    out.checkpointFailures = &r.counter("bf_checkpoint_failures_total",
                                        "Durability checkpoints that failed");
    out.checkpointLastMs = &r.gauge(
        "bf_checkpoint_last_ms", "Wall time of the last checkpoint write");
    out.checkpointDurationUs = &r.histogram(
        "bf_checkpoint_duration_us",
        "Checkpoint wall time in microseconds (runs on the decision path "
        "under the engine state lock, so the tail here is decision latency)",
        {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
         250000, 500000, 1000000, 5000000});
    out.recoveryRuns =
        &r.counter("bf_recovery_runs_total", "Crash recoveries performed");
    out.recoveryReplayedRecords =
        &r.counter("bf_recovery_replayed_records_total",
                   "WAL records replayed during recovery");
    out.recoveryDiscardedBytes =
        &r.counter("bf_recovery_discarded_bytes_total",
                   "WAL bytes discarded at torn/corrupt tails");
    out.recoveryFallbacks =
        &r.counter("bf_recovery_fallback_checkpoints_total",
                   "Recoveries that skipped a corrupt newest checkpoint");
    out.recoveryLastReplayMs = &r.gauge(
        "bf_recovery_last_replay_ms",
        "Checkpoint load + WAL replay wall time of the last recovery");
    return out;
  }();
  return m;
}

}  // namespace

// ---- WriteAheadLog ----------------------------------------------------------

WriteAheadLog::~WriteAheadLog() { close(); }

util::Status WriteAheadLog::open(const std::string& path,
                                 std::uint64_t baseSequence,
                                 bool syncEachAppend, io::Vfs* vfs) {
  util::MutexLock lock(mutex_);
  closeLocked();
  vfs_ = vfs != nullptr ? vfs : &io::defaultVfs();
  file_ = vfs_->openForWrite(path);
  if (file_ == nullptr) {
    healthy_ = false;
    return util::Status::error("cannot open WAL: " + path);
  }
  std::string header;
  header.append(kWalMagic);
  util::putU64(header, baseSequence);
  if (!file_->write(header).ok || !file_->sync()) {
    poisonLocked();
    healthy_ = false;
    return util::Status::error("cannot write WAL header: " + path);
  }
  walMetrics().syncs->inc();
  path_ = path;
  nextSeq_ = baseSequence + 1;
  appended_ = 0;
  syncEachAppend_ = syncEachAppend;
  healthy_ = true;
  return {};
}

void WriteAheadLog::close() {
  util::MutexLock lock(mutex_);
  closeLocked();
  healthy_ = false;
}

void WriteAheadLog::closeLocked() {
  if (file_ != nullptr) {
    (void)flushLocked();  // may poison the file on failure
    if (file_ != nullptr) {
      (void)file_->sync();
      (void)file_->close();
      file_.reset();
    }
  }
  buffer_.clear();
  bufferedRecords_ = 0;
}

void WriteAheadLog::poisonLocked() {
  // Abandon the file: its tail may be torn, which is exactly the shape
  // recovery's CRC/continuity checks discard. The next rotation supersedes
  // it with a fresh segment.
  if (file_ != nullptr) {
    (void)file_->close();
    file_.reset();
  }
}

util::Status WriteAheadLog::rotate(const std::string& path,
                                   std::uint64_t baseSequence) {
  // open() already closes the previous file after taking the lock; rotate
  // is just open() with checkpoint-supplied parameters (and the Vfs the
  // log was opened with).
  io::Vfs* vfs;
  bool sea;
  {
    util::MutexLock lock(mutex_);
    vfs = vfs_;
    sea = syncEachAppend_;
  }
  return open(path, baseSequence, sea, vfs);
}

void WriteAheadLog::append(WalRecordType type, const std::string& body) {
  // Covers lock wait + frame serialisation + any flush this append triggers.
  obs::StageTimer walTimer(obs::Stage::kWalAppend);
  const WalMetrics& m = walMetrics();
  util::MutexLock lock(mutex_);
  if (!healthy_ || file_ == nullptr) {
    // Dropped — but the sequence is still consumed. Sequences are the
    // bridge between the in-memory state and the durable record; keeping
    // them monotonic means the repair checkpoint (taken at the last
    // assigned sequence) provably covers every dropped record, and an
    // already-written prefix never collides with a reused sequence.
    healthy_ = false;
    ++nextSeq_;
    m.appendFailures->inc();
    m.recordsLost->inc();
    return;
  }
  // Serialise the frame directly into the flush buffer, then patch the
  // length/CRC prefix in place — no intermediate payload copy.
  const std::size_t frameStart = buffer_.size();
  buffer_.append(8, '\0');  // u32 payloadLen | u32 maskedCrc placeholders
  util::putU64(buffer_, nextSeq_);
  util::putU8(buffer_, static_cast<std::uint8_t>(type));
  buffer_.append(body);
  const std::size_t payloadLen = buffer_.size() - frameStart - 8;
  const std::string_view payload(buffer_.data() + frameStart + 8, payloadLen);
  const std::uint32_t crc = util::maskCrc32c(util::crc32c(payload));
  for (int i = 0; i < 4; ++i) {
    buffer_[frameStart + i] =
        static_cast<char>(static_cast<std::uint32_t>(payloadLen) >> (8 * i));
    buffer_[frameStart + 4 + i] = static_cast<char>(crc >> (8 * i));
  }
  const std::size_t frameSize = 8 + payloadLen;
  ++bufferedRecords_;
  ++nextSeq_;
  ++appended_;
  m.appends->inc();
  m.bytesWritten->inc(frameSize);

  // One write() per kFlushBytes keeps the syscall off the per-keystroke
  // path; the fsync boundary (checkpoint / sync() / syncEachAppend) is
  // what the durability guarantee rests on either way.
  if (buffer_.size() >= kFlushBytes || syncEachAppend_) {
    if (!flushLocked()) return;
  }
  if (syncEachAppend_) {
    if (!file_->sync()) {
      // The record reached the kernel but maybe not the device: count it
      // lost (the count is an upper bound) and poison the file.
      healthy_ = false;
      m.appendFailures->inc();
      m.recordsLost->inc();
      poisonLocked();
      return;
    }
    m.syncs->inc();
  }
}

bool WriteAheadLog::flushLocked() {
  if (buffer_.empty()) return true;
  const bool wrote = file_ != nullptr && file_->write(buffer_).ok;
  if (!wrote) {
    // The tracker mutations already happened; durability degrades, the
    // mutations do not roll back (availability over durability). The
    // buffered records are counted lost (an upper bound — a prefix may in
    // fact have reached the device) and the file is poisoned; sequences
    // stay monotonic so the repair checkpoint at the last assigned
    // sequence re-covers everything dropped here.
    healthy_ = false;
    walMetrics().appendFailures->inc(bufferedRecords_);
    walMetrics().recordsLost->inc(bufferedRecords_);
    poisonLocked();
  }
  buffer_.clear();
  bufferedRecords_ = 0;
  return wrote;
}

void WriteAheadLog::logSegmentObserved(const SegmentRecord& rec) {
  std::string body;
  body.reserve(65 + rec.name.size() + rec.document.size() +
               rec.service.size() + rec.fingerprint.grams().size() * 8);
  putSegmentRecord(body, rec);
  append(WalRecordType::kSegmentObserved, body);
}

void WriteAheadLog::logSegmentRemoved(SegmentId id) {
  std::string body;
  util::putU64(body, id);
  append(WalRecordType::kSegmentRemoved, body);
}

void WriteAheadLog::logThresholdChanged(std::string_view name,
                                        double threshold) {
  std::string body;
  util::putStr(body, name);
  util::putF64(body, threshold);
  append(WalRecordType::kThresholdChanged, body);
}

util::Status WriteAheadLog::sync() {
  util::MutexLock lock(mutex_);
  if (file_ == nullptr) return util::Status::error("WAL not open");
  if (!flushLocked()) {
    return util::Status::error("WAL flush failed: " + path_);
  }
  if (!file_->sync()) {
    healthy_ = false;
    poisonLocked();
    return util::Status::error("WAL fsync failed: " + path_);
  }
  walMetrics().syncs->inc();
  return {};
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  util::MutexLock lock(mutex_);
  return {healthy_, nextSeq_, appended_};
}

// ---- Replay -----------------------------------------------------------------

namespace {

/// Applies one validated record payload (past sequence + type) to the
/// tracker. Returns false when the body does not parse exactly or carries
/// out-of-range values — the frame is then treated as corrupt.
bool applyRecord(FlowTracker& tracker, WalRecordType type,
                 std::string_view body, util::Timestamp& maxTs) {
  util::BinaryReader r(body);
  switch (type) {
    case WalRecordType::kSegmentObserved: {
      SegmentRecord rec;
      if (!readSegmentRecord(r, rec).empty()) return false;
      if (!r.ok() || !r.atEnd()) return false;
      if (rec.id == kInvalidSegment) return false;
      maxTs = std::max({maxTs, rec.createdAt, rec.updatedAt});
      tracker.replaySegmentObserved(std::move(rec));
      return true;
    }
    case WalRecordType::kSegmentRemoved: {
      const SegmentId id = r.u64();
      if (!r.ok() || !r.atEnd()) return false;
      tracker.removeSegment(id);
      return true;
    }
    case WalRecordType::kThresholdChanged: {
      const std::string name = r.str();
      const double threshold = r.f64();
      if (!r.ok() || !r.atEnd()) return false;
      if (!validThreshold(threshold)) return false;
      (void)tracker.setSegmentThreshold(name, threshold);
      return true;
    }
  }
  return false;  // unknown type
}

}  // namespace

WalReplayResult replayWalFile(FlowTracker& tracker, const std::string& path,
                              std::uint64_t nextExpected, io::Vfs* vfs) {
  WalReplayResult out;
  out.lastSequence = nextExpected == 0 ? 0 : nextExpected - 1;

  io::Vfs& v = vfs != nullptr ? *vfs : io::defaultVfs();
  util::Result<std::string> read = v.readFile(path);
  if (!read.ok()) {
    out.sawCorruption = true;
    return out;
  }
  const std::string& data = read.value();

  if (data.size() < kWalHeaderBytes || !data.starts_with(kWalMagic)) {
    out.sawCorruption = true;
    out.discardedBytes = data.size();
    return out;
  }

  std::size_t pos = kWalHeaderBytes;
  std::uint64_t next = nextExpected;
  while (pos < data.size()) {
    // Frame header: u32 len + u32 masked CRC.
    if (data.size() - pos < 8) break;  // torn header
    util::BinaryReader hdr(std::string_view(data).substr(pos, 8));
    const std::uint32_t len = hdr.u32();
    const std::uint32_t storedCrc = hdr.u32();
    if (len < 9 || len > kMaxFrameBytes || data.size() - pos - 8 < len) {
      break;  // impossible length or torn payload
    }
    const std::string_view payload = std::string_view(data).substr(pos + 8, len);
    if (util::unmaskCrc32c(storedCrc) != util::crc32c(payload)) break;

    util::BinaryReader pr(payload);
    const std::uint64_t seq = pr.u64();
    const WalRecordType type = static_cast<WalRecordType>(pr.u8());
    if (seq < next) {
      // Already covered by the checkpoint (or an earlier log).
      ++out.skipped;
      pos += 8 + len;
      continue;
    }
    if (seq != next) break;  // sequence gap: the prefix ends here
    if (!applyRecord(tracker, type, payload.substr(9), out.maxTimestamp)) {
      break;  // unparseable body counts as corruption
    }
    ++out.applied;
    out.lastSequence = seq;
    ++next;
    pos += 8 + len;
  }
  if (pos < data.size()) {
    out.sawCorruption = true;
    out.discardedBytes = data.size() - pos;
  }
  return out;
}

// ---- DurabilityManager ------------------------------------------------------

namespace {

/// Seed for the repair backoff jitter ("bf_repai").
constexpr std::uint64_t kRepairSeed = 0x62665F7265706169ull;

/// Parses "<prefix><16 hex digits><suffix>" names; returns the sequence or
/// nullopt when the name does not match.
std::optional<std::uint64_t> parseSeqName(std::string_view name,
                                          std::string_view prefix,
                                          std::string_view suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(prefix.size() + 16) != suffix) return std::nullopt;
  std::uint64_t seq = 0;
  for (char c : name.substr(prefix.size(), 16)) {
    seq <<= 4;
    if (c >= '0' && c <= '9') {
      seq |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      seq |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return seq;
}

std::string seqName(std::string_view prefix, std::uint64_t seq,
                    std::string_view suffix) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(seq));
  std::string out(prefix);
  out += hex;
  out += suffix;
  return out;
}

/// Sequences of all files named <prefix><seq><suffix> in `dir`, sorted
/// ascending.
std::vector<std::uint64_t> listSeqFiles(io::Vfs& vfs, const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<std::uint64_t> out;
  for (const std::string& name : vfs.listDir(dir)) {
    if (auto seq = parseSeqName(name, prefix, suffix)) {
      out.push_back(*seq);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityConfig config)
    : config_(std::move(config)),
      repairRng_(kRepairSeed),
      repairBackoff_(config_.repairBaseDelayMs, config_.repairMaxDelayMs,
                     &repairRng_) {}

DurabilityManager::~DurabilityManager() { wal_.close(); }

io::Vfs& DurabilityManager::vfs() const noexcept {
  return config_.vfs != nullptr ? *config_.vfs : io::defaultVfs();
}

std::string DurabilityManager::checkpointPath(std::uint64_t seq) const {
  return config_.directory + "/" + seqName("checkpoint-", seq, ".bfc");
}

std::string DurabilityManager::walPath(std::uint64_t seq) const {
  return config_.directory + "/" + seqName("wal-", seq, ".bfw");
}

void DurabilityManager::pruneGenerations(std::uint64_t currentSeq) {
  if (config_.keepGenerations == 0) return;  // keep everything
  const auto checkpoints =
      listSeqFiles(vfs(), config_.directory, "checkpoint-", ".bfc");
  // Keep the newest keepGenerations checkpoints; every WAL whose base
  // sequence is >= the oldest kept checkpoint is still needed to roll that
  // checkpoint forward (logs rotate AT checkpoints, so wal-<S> holds only
  // records with sequence > S).
  if (checkpoints.size() <= config_.keepGenerations) return;
  const std::uint64_t oldestKept =
      checkpoints[checkpoints.size() - config_.keepGenerations];
  for (std::uint64_t seq : checkpoints) {
    if (seq < oldestKept) (void)vfs().remove(checkpointPath(seq));
  }
  for (std::uint64_t seq :
       listSeqFiles(vfs(), config_.directory, "wal-", ".bfw")) {
    if (seq < oldestKept && seq != currentSeq) {
      (void)vfs().remove(walPath(seq));
    }
  }
}

util::Result<RecoveryStats> DurabilityManager::recoverAndAttach(
    FlowTracker& tracker) {
  using R = util::Result<RecoveryStats>;
  util::Stopwatch watch;
  const WalMetrics& m = walMetrics();
  m.recoveryRuns->inc();

  (void)vfs().mkdir(config_.directory);

  RecoveryStats stats;

  // 1. Newest checkpoint that loads (import is all-or-nothing, so a failed
  //    attempt leaves the tracker empty for the next candidate).
  const auto checkpoints =
      listSeqFiles(vfs(), config_.directory, "checkpoint-", ".bfc");
  bool loaded = false;
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    auto info = loadSnapshot(tracker, checkpointPath(*it), config_.secret,
                             config_.vfs);
    if (info.ok()) {
      stats.checkpointSequence = info.value().sequence;
      stats.maxTimestamp = info.value().maxTimestamp;
      loaded = true;
      break;
    }
    stats.usedFallbackCheckpoint = true;
    m.recoveryFallbacks->inc();
  }
  if (!loaded) stats.checkpointSequence = 0;  // cold start / all corrupt

  // 2. Replay every log in base-sequence order. A log wal-<S> holds
  //    records S+1..; it can only extend the replay frontier when S+1 is
  //    at or below the next expected sequence — otherwise the records
  //    between the frontier and S are missing (torn tail of the previous
  //    log, or records lost while degraded) and everything in it is an
  //    unreachable suffix. Logs entirely below the checkpoint skip
  //    through via the in-file sequence checks.
  std::uint64_t next = stats.checkpointSequence + 1;
  for (std::uint64_t s :
       listSeqFiles(vfs(), config_.directory, "wal-", ".bfw")) {
    if (s + 1 > next) {
      stats.discardedBytes += vfs().fileSize(walPath(s));
      continue;
    }
    const WalReplayResult r =
        replayWalFile(tracker, walPath(s), next, config_.vfs);
    stats.replayedRecords += r.applied;
    stats.discardedBytes += r.discardedBytes;
    stats.maxTimestamp = std::max(stats.maxTimestamp, r.maxTimestamp);
    if (r.applied > 0) next = r.lastSequence + 1;
  }
  stats.lastSequence = next - 1;
  m.recoveryReplayedRecords->inc(stats.replayedRecords);
  m.recoveryDiscardedBytes->inc(stats.discardedBytes);

  // 3. Make the recovered state durable NOW: fresh checkpoint at the
  //    recovered sequence, fresh log continuing from it. Old generations
  //    (including any corrupt files) are pruned per config.
  if (util::Status s =
          saveSnapshot(tracker, checkpointPath(stats.lastSequence),
                       config_.secret, stats.lastSequence, config_.vfs);
      !s.ok()) {
    m.checkpointFailures->inc();
    return R::error("post-recovery checkpoint failed: " + s.errorMessage());
  }
  m.checkpoints->inc();
  if (util::Status s =
          wal_.open(walPath(stats.lastSequence), stats.lastSequence,
                    config_.syncEachAppend, config_.vfs);
      !s.ok()) {
    return R::error(s.errorMessage());
  }
  pruneGenerations(stats.lastSequence);
  tracker.attachWal(&wal_);
  attached_ = true;
  lastCheckpointOk_ = true;
  health_ = DurabilityHealth::kHealthy;
  m.health->set(0.0);

  stats.replayMillis = watch.elapsedMillis();
  m.recoveryLastReplayMs->set(stats.replayMillis);
  return stats;
}

util::Status DurabilityManager::checkpoint(const FlowTracker& tracker) {
  util::Stopwatch watch;
  const WalMetrics& m = walMetrics();
  // The caller quiesced mutations, so the last assigned sequence is stable
  // and the exported state contains exactly the records up to it — the
  // full in-memory state, including any records the WAL dropped, which is
  // what makes this checkpoint double as the degraded-mode repair.
  const std::uint64_t seq = wal_.stats().nextSequence - 1;
  if (util::Status s = saveSnapshot(tracker, checkpointPath(seq),
                                    config_.secret, seq, config_.vfs);
      !s.ok()) {
    m.checkpointFailures->inc();
    m.checkpointDurationUs->observe(watch.elapsedMicros());
    lastCheckpointOk_ = false;
    enterDegraded();
    return s;
  }
  m.checkpoints->inc();
  if (util::Status s = wal_.rotate(walPath(seq), seq); !s.ok()) {
    m.checkpointDurationUs->observe(watch.elapsedMicros());
    lastCheckpointOk_ = false;
    // The snapshot above DID land, and it is the newest: prune here too,
    // or every failed rotation of a repair storm strands one more full
    // checkpoint until some attempt finally succeeds.
    pruneGenerations(seq);
    enterDegraded();
    return s;
  }
  pruneGenerations(seq);
  lastCheckpointOk_ = true;
  // A successful checkpoint + rotation IS a durable prefix: whatever the
  // WAL lost before is now inside the snapshot, so health is restored.
  health_ = DurabilityHealth::kHealthy;
  m.health->set(0.0);
  m.checkpointLastMs->set(watch.elapsedMillis());
  m.checkpointDurationUs->observe(watch.elapsedMicros());
  return {};
}

void DurabilityManager::enterDegraded() {
  if (health_ == DurabilityHealth::kHealthy) {
    // New degraded episode: fresh backoff sequence.
    repairBackoff_.reset();
  }
  health_ = DurabilityHealth::kDegraded;
  nextRepairDelayMs_ = repairBackoff_.nextDelayMs();
  repairWatch_.reset();
  walMetrics().health->set(1.0);
}

util::Status DurabilityManager::attemptRepair(const FlowTracker& tracker) {
  health_ = DurabilityHealth::kRecovering;
  walMetrics().health->set(2.0);
  // The repair is an emergency checkpoint: snapshot the full in-memory
  // state at the last assigned sequence (covering every lost record) and
  // rotate onto a fresh segment. checkpoint() restores kHealthy on
  // success and re-enters kDegraded (advancing the backoff) on failure.
  util::Status s = checkpoint(tracker);
  if (s.ok()) {
    walMetrics().repairs->inc();
  } else {
    walMetrics().repairFailures->inc();
  }
  return s;
}

util::Status DurabilityManager::maintain(const FlowTracker& tracker) {
  if (!attached_) return {};
  if (health_ == DurabilityHealth::kHealthy) {
    // Fast path: one WAL lock acquisition to learn everything we need.
    const WriteAheadLog::Stats s = wal_.stats();
    if (!s.healthy || !lastCheckpointOk_) {
      enterDegraded();
      return {};
    }
    if (s.appended >= config_.checkpointEveryRecords) {
      return checkpoint(tracker);
    }
    return {};
  }
  // Degraded (or a previous repair still marked recovering): pace repair
  // attempts on the decorrelated-jitter backoff — a dying disk gets
  // breathing room, and the decision path pays one stopwatch read per
  // decision while waiting.
  if (repairWatch_.elapsedMillis() < nextRepairDelayMs_) return {};
  return attemptRepair(tracker);
}

bool DurabilityManager::healthy() const {
  return attached_ && health_ == DurabilityHealth::kHealthy &&
         lastCheckpointOk_ && wal_.stats().healthy;
}

}  // namespace bf::flow
