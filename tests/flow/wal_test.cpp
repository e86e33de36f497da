// Tests for the write-ahead log and the durability manager (DESIGN.md §11):
// replay fidelity, torn-tail discard, checkpoint rotation and fallback.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "flow/snapshot.h"
#include "flow/wal.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : rng_(7), gen_(&rng_), tracker_(TrackerConfig{}, &clock_) {
    dir_ = "/tmp/bf_wal_test_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
    ::mkdir(dir_.c_str(), 0755);
  }

  ~WalTest() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  /// Canonical state for equality checks.
  static std::string canon(const FlowTracker& t) { return exportState(t); }

  DurabilityConfig configFor(std::uint64_t checkpointEvery = 1u << 30) {
    DurabilityConfig cfg;
    cfg.directory = dir_;
    cfg.checkpointEveryRecords = checkpointEvery;
    return cfg;
  }

  /// Runs a small mutation workload through the tracker.
  void workload() {
    for (int i = 0; i < 6; ++i) {
      tracker_.observeSegment(SegmentKind::kParagraph,
                              "w#p" + std::to_string(i), "w", "svc",
                              gen_.paragraph(5, 8));
    }
    tracker_.removeSegmentByName("w#p3");
    ASSERT_TRUE(tracker_.setSegmentThreshold("w#p1", 0.7));
  }

  /// Recovers a fresh tracker from `dir_` with a fresh manager; returns its
  /// canonical state.
  std::string recoverFresh(RecoveryStats* statsOut = nullptr) {
    util::LogicalClock clock2;
    FlowTracker restored(TrackerConfig{}, &clock2);
    DurabilityManager mgr(configFor());
    auto stats = mgr.recoverAndAttach(restored);
    EXPECT_TRUE(stats.ok()) << stats.errorMessage();
    if (!stats.ok()) return {};
    if (statsOut != nullptr) *statsOut = stats.value();
    clock2.advanceTo(stats.value().maxTimestamp + 1);
    restored.attachWal(nullptr);  // comparisons only; stop logging
    return canon(restored);
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  FlowTracker tracker_;
  std::string dir_;
};

TEST_F(WalTest, RecoverReplaysEveryMutationKind) {
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  workload();
  tracker_.observeSegment(SegmentKind::kParagraph, "late#p0", "late", "svc",
                          gen_.paragraph(5, 8));
  const std::string live = canon(tracker_);
  // Recovery runs against the directory while this manager is live:
  // materialise the buffered tail first (a crash would do it via close()).
  ASSERT_TRUE(mgr.wal().sync().ok());

  RecoveryStats stats;
  EXPECT_EQ(recoverFresh(&stats), live);
  EXPECT_GT(stats.replayedRecords, 0u);
  EXPECT_EQ(stats.discardedBytes, 0u);
}

TEST_F(WalTest, SameHashEditRecoversItsGramPositions) {
  // An edit that moves grams without changing the hash set is logged, so
  // recovery restores the moved positions; its replay at the unchanged
  // updatedAt leaves DBhash as the live path left it.
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  const std::string text = gen_.paragraph(7, 9);
  tracker_.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", text);
  tracker_.observeSegment(SegmentKind::kParagraph, "t#p0", "t", "svc",
                          gen_.paragraph(5, 8));
  std::string edited = text;
  edited.insert(edited.size() / 2, "  ;");
  ASSERT_TRUE(
      tracker_.fingerprintOf(edited).sameHashes(tracker_.fingerprintOf(text)));
  tracker_.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", edited);
  EXPECT_EQ(tracker_.segmentByName("s#p0")->fingerprint.grams(),
            tracker_.fingerprintOf(edited).grams());
  const std::string live = canon(tracker_);
  ASSERT_TRUE(mgr.wal().sync().ok());
  EXPECT_EQ(recoverFresh(), live);
}

TEST_F(WalTest, SameHashEditAfterImportRecoversWithoutItsHashes) {
  // An imported state need not hold a segment's hashes in DBhash. A later
  // edit that only moves its grams leaves DBhash without them live, and so
  // must its replay.
  const std::string text = gen_.paragraph(7, 9);
  {
    util::LogicalClock clock2;
    FlowTracker source(TrackerConfig{}, &clock2);
    SegmentRecord rec;
    rec.id = 1;
    rec.kind = SegmentKind::kParagraph;
    rec.name = "s#p0";
    rec.document = "s";
    rec.service = "svc";
    rec.fingerprint = source.fingerprintOf(text);
    rec.createdAt = 1;
    rec.updatedAt = 1;
    source.restoreSegment(rec);
    ASSERT_TRUE(saveSnapshot(source, dir_ + "/checkpoint-0000000000000000.bfc",
                             "", 0)
                    .ok());
  }
  DurabilityManager mgr(configFor());
  const auto stats = mgr.recoverAndAttach(tracker_);
  ASSERT_TRUE(stats.ok()) << stats.errorMessage();
  clock_.advanceTo(stats.value().maxTimestamp + 1);
  ASSERT_EQ(tracker_.hashDb().distinctHashCount(SegmentKind::kParagraph), 0u);
  std::string edited = text;
  edited.insert(edited.size() / 2, "  ;");
  ASSERT_TRUE(
      tracker_.fingerprintOf(edited).sameHashes(tracker_.fingerprintOf(text)));
  tracker_.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", edited);
  EXPECT_EQ(tracker_.hashDb().distinctHashCount(SegmentKind::kParagraph), 0u);
  const std::string live = canon(tracker_);
  ASSERT_TRUE(mgr.wal().sync().ok());
  EXPECT_EQ(recoverFresh(), live);
}

TEST_F(WalTest, ImportIntoAnAttachedTrackerIsRefused) {
  // Restores are not logged, so an import into a tracker that logs would
  // leave the log short of the imported state. Refused instead: the
  // tracker stays empty and the log gets no record.
  constexpr SegmentKind kPar = SegmentKind::kParagraph;
  const std::string a = gen_.paragraph(7, 9);
  const std::string b = gen_.paragraph(7, 9);
  tracker_.observeSegment(kPar, "a#p0", "a", "svc", a);
  tracker_.observeSegment(kPar, "b#p0", "b", "svc", a + " " + b);
  tracker_.observeSegment(kPar, "a#p0", "a", "svc", a + " and a day later");
  const auto live = tracker_.checkText(a + " " + b, "b");
  ASSERT_FALSE(live.empty());
  const std::string blob = exportState(tracker_);

  util::LogicalClock clock2;
  FlowTracker attached(TrackerConfig{}, &clock2);
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(attached).ok());
  const std::uint64_t next = mgr.wal().stats().nextSequence;
  const auto result = importState(attached, blob);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorMessage().find("WAL"), std::string::npos);
  EXPECT_EQ(attached.segmentDb().size(), 0u);
  EXPECT_EQ(attached.hashDb().distinctHashCount(SegmentKind::kParagraph), 0u);
  EXPECT_EQ(mgr.wal().stats().nextSequence, next);
  EXPECT_EQ(mgr.wal().stats().appended, 0u);

  // Detached, the same blob imports with the live answers.
  attached.attachWal(nullptr);
  ASSERT_TRUE(importState(attached, blob).ok());
  const auto imported = attached.checkText(a + " " + b, "b");
  ASSERT_EQ(imported.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(imported[i].sourceName, live[i].sourceName);
    EXPECT_EQ(imported[i].score, live[i].score);
  }
}

TEST_F(WalTest, RecoveredStateAnswersSameQueries) {
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  const std::string secretText = gen_.paragraph(8, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc",
                          secretText);
  ASSERT_TRUE(mgr.wal().sync().ok());

  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  DurabilityManager mgr2(configFor());
  auto stats = mgr2.recoverAndAttach(restored);
  ASSERT_TRUE(stats.ok());
  clock2.advanceTo(stats.value().maxTimestamp + 1);
  const auto hits = restored.checkText(secretText, "probe");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sourceName, "s#p0");
}

TEST_F(WalTest, TornTailIsDiscardedPrefixSurvives) {
  {
    DurabilityManager mgr(configFor());
    ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
    workload();
  }
  // State after only the first observation (sequence 1): replay of a log
  // truncated inside record 2 must land exactly there.
  const std::string walFile = dir_ + "/wal-0000000000000000.bfw";
  std::string data = readFile(walFile);
  ASSERT_GT(data.size(), 40u);
  // Find the end of frame 1: header(16) + 8 + len1.
  std::uint32_t len1 = 0;
  for (int i = 0; i < 4; ++i) {
    len1 |= static_cast<std::uint32_t>(
                static_cast<unsigned char>(data[16 + static_cast<size_t>(i)]))
            << (8 * i);
  }
  const std::size_t endOfFirst = 16 + 8 + len1;
  ASSERT_LT(endOfFirst, data.size());
  data.resize(endOfFirst + 5);  // tear frame 2 mid-header/payload
  writeFile(walFile, data);
  // Remove the post-recovery checkpoint so replay must come from the WAL.
  std::remove((dir_ + "/checkpoint-0000000000000000.bfc").c_str());

  RecoveryStats stats;
  const std::string recovered = recoverFresh(&stats);
  EXPECT_EQ(stats.lastSequence, 1u);
  EXPECT_EQ(stats.replayedRecords, 1u);
  EXPECT_GT(stats.discardedBytes, 0u);

  // Oracle: one observation applied to a fresh tracker.
  util::LogicalClock clock3;
  util::Rng rng3(7);
  corpus::TextGenerator gen3(&rng3);
  FlowTracker oracle(TrackerConfig{}, &clock3);
  oracle.observeSegment(SegmentKind::kParagraph, "w#p0", "w", "svc",
                        gen3.paragraph(5, 8));
  EXPECT_EQ(recovered, canon(oracle));
}

TEST_F(WalTest, CorruptFrameStopsReplayAtPrefix) {
  {
    DurabilityManager mgr(configFor());
    ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
    workload();
  }
  const std::string walFile = dir_ + "/wal-0000000000000000.bfw";
  std::string data = readFile(walFile);
  // Flip one byte in the middle of the log: every record after the broken
  // frame is unreachable even if its own CRC is fine.
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  writeFile(walFile, data);
  std::remove((dir_ + "/checkpoint-0000000000000000.bfc").c_str());

  RecoveryStats stats;
  const std::string recovered = recoverFresh(&stats);
  EXPECT_FALSE(recovered.empty());
  EXPECT_GT(stats.discardedBytes, 0u);
  EXPECT_LT(stats.lastSequence, 8u);  // workload appended 8 records
}

TEST_F(WalTest, CheckpointRotatesAndRecovers) {
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  workload();
  ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  // Post-checkpoint mutations land in the rotated log.
  tracker_.observeSegment(SegmentKind::kParagraph, "post#p0", "post", "svc",
                          gen_.paragraph(5, 8));
  const std::string live = canon(tracker_);
  ASSERT_TRUE(mgr.wal().sync().ok());

  RecoveryStats stats;
  EXPECT_EQ(recoverFresh(&stats), live);
  EXPECT_GT(stats.checkpointSequence, 0u);
  EXPECT_EQ(stats.replayedRecords, 1u);  // only the post-checkpoint record
}

TEST_F(WalTest, CheckpointEveryNRecordsTriggersViaIfDue) {
  DurabilityManager mgr(configFor(/*checkpointEvery=*/4));
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  const auto before = obs::registry().snapshot();
  for (int i = 0; i < 9; ++i) {
    tracker_.observeSegment(SegmentKind::kParagraph,
                            "d#p" + std::to_string(i), "d", "svc",
                            gen_.paragraph(4, 6));
    ASSERT_TRUE(mgr.maintain(tracker_).ok());
  }
  const auto delta = obs::registry().snapshot().diff(before);
  EXPECT_GE(delta.counterValue("bf_checkpoints_total"), 2u);
  ASSERT_TRUE(mgr.wal().sync().ok());
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, CorruptNewestCheckpointFallsBackToOlderGeneration) {
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  workload();
  ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  tracker_.observeSegment(SegmentKind::kParagraph, "tail#p0", "tail", "svc",
                          gen_.paragraph(5, 8));
  const std::string live = canon(tracker_);
  ASSERT_TRUE(mgr.wal().sync().ok());

  // Corrupt the NEWEST checkpoint; the previous generation plus the full
  // log chain must reproduce the same state (keepGenerations = 2).
  std::uint64_t newest = 0;
  std::string newestPath;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(seq));
    const std::string p = dir_ + "/checkpoint-" + hex + ".bfc";
    std::ifstream probe(p);
    if (probe.good() && seq >= newest) {
      newest = seq;
      newestPath = p;
    }
  }
  ASSERT_FALSE(newestPath.empty());
  ASSERT_GT(newest, 0u);
  std::string data = readFile(newestPath);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x01);
  writeFile(newestPath, data);

  RecoveryStats stats;
  EXPECT_EQ(recoverFresh(&stats), live);
  EXPECT_TRUE(stats.usedFallbackCheckpoint);
}

TEST_F(WalTest, AppendFailureLatchesUnhealthyButMutationsSucceed) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/40);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;  // surface the write fault on the append itself
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  EXPECT_TRUE(mgr.healthy());
  const testutil::CounterDelta counted;
  fault.failNext(".bfw", 1, io::StorageFaultKind::kEnospc);
  const SegmentId id = tracker_.observeSegment(
      SegmentKind::kParagraph, "x#p0", "x", "svc", gen_.paragraph(5, 8));
  EXPECT_NE(id, kInvalidSegment);  // the mutation itself never fails
  EXPECT_FALSE(mgr.healthy());
  EXPECT_EQ(counted("bf_wal_append_failures_total"), 1u);
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 1u);
  // A checkpoint rotation restores health.
  ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  EXPECT_TRUE(mgr.healthy());
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, PruneKeepsConfiguredGenerations) {
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  for (int round = 0; round < 5; ++round) {
    tracker_.observeSegment(SegmentKind::kParagraph,
                            "r#p" + std::to_string(round), "r", "svc",
                            gen_.paragraph(4, 6));
    ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  }
  int checkpoints = 0;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(seq));
    std::ifstream probe(dir_ + "/checkpoint-" + hex + ".bfc");
    if (probe.good()) ++checkpoints;
  }
  EXPECT_EQ(checkpoints, 2);  // keepGenerations default
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, EncryptedCheckpointsRoundTrip) {
  DurabilityConfig cfg = configFor();
  cfg.secret = "org-secret";
  {
    DurabilityManager mgr(cfg);
    ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
    workload();
    ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  }
  util::LogicalClock clock2;
  FlowTracker restored(TrackerConfig{}, &clock2);
  DurabilityManager mgr2(cfg);
  auto stats = mgr2.recoverAndAttach(restored);
  ASSERT_TRUE(stats.ok()) << stats.errorMessage();
  restored.attachWal(nullptr);
  EXPECT_EQ(canon(restored), canon(tracker_));
}

TEST_F(WalTest, ReplaySkipsRecordsCoveredByCheckpoint) {
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  workload();
  ASSERT_TRUE(mgr.checkpoint(tracker_).ok());

  // Recovery must not double-apply pre-checkpoint records even when the
  // old log generation is still on disk (keepGenerations includes it).
  RecoveryStats stats;
  EXPECT_EQ(recoverFresh(&stats), canon(tracker_));
  EXPECT_EQ(stats.replayedRecords, 0u);
}

TEST_F(WalTest, RecoveryMetricsAreRecorded) {
  {
    DurabilityManager mgr(configFor());
    ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
    workload();
  }
  const auto before = obs::registry().snapshot();
  RecoveryStats stats;
  (void)recoverFresh(&stats);
  const auto now = obs::registry().snapshot();
  const auto delta = now.diff(before);
  EXPECT_GE(delta.counterValue("bf_recovery_runs_total"), 1u);
  EXPECT_GE(delta.counterValue("bf_recovery_replayed_records_total"),
            stats.replayedRecords);
  EXPECT_GE(now.gaugeValue("bf_recovery_last_replay_ms"), 0.0);
}

TEST_F(WalTest, WalFileWithBadMagicIsDiscardedEntirely) {
  {
    DurabilityManager mgr(configFor());
    ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
    workload();
  }
  const std::string walFile = dir_ + "/wal-0000000000000000.bfw";
  std::string data = readFile(walFile);
  data[0] = 'X';
  writeFile(walFile, data);
  std::remove((dir_ + "/checkpoint-0000000000000000.bfc").c_str());

  RecoveryStats stats;
  const std::string recovered = recoverFresh(&stats);
  EXPECT_EQ(stats.replayedRecords, 0u);
  EXPECT_EQ(stats.discardedBytes, data.size());
  // Nothing replayable: recovery lands on the empty state.
  util::LogicalClock clock3;
  FlowTracker empty(TrackerConfig{}, &clock3);
  EXPECT_EQ(recovered, canon(empty));
}

// ---- Fault injection + self-healing (ISSUE 7) -----------------------------

TEST_F(WalTest, DroppedAppendsConsumeSequencesAndCountLost) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/47);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  const std::uint64_t seqBefore = mgr.wal().stats().nextSequence;
  const testutil::CounterDelta counted;
  fault.failNext(".bfw", 1, io::StorageFaultKind::kEnospc);
  // The first append drops and latches unhealthy; the two after it drop
  // too (no sequence gap can ever appear inside one segment file).
  for (int i = 0; i < 3; ++i) {
    tracker_.observeSegment(SegmentKind::kParagraph,
                            "l#p" + std::to_string(i), "l", "svc",
                            gen_.paragraph(4, 6));
  }
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 3u);
  EXPECT_EQ(mgr.wal().stats().nextSequence, seqBefore + 3);  // monotonic
  EXPECT_FALSE(mgr.wal().stats().healthy);
  // The repair checkpoint at nextSequence-1 provably covers the lost
  // records: recovery reproduces the full in-memory state.
  ASSERT_TRUE(mgr.checkpoint(tracker_).ok());
  EXPECT_TRUE(mgr.healthy());
  // Durability debt is never reset.
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 3u);
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, InjectedWriteFaultDegradesAndMaintainSelfHeals) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/41);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;  // surface the write fault on the append itself
  cfg.repairBaseDelayMs = 0.0;  // tests never wait on the backoff clock
  cfg.repairMaxDelayMs = 0.0;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  EXPECT_EQ(mgr.health(), DurabilityHealth::kHealthy);

  const testutil::CounterDelta counted;
  fault.failNext(".bfw", 1, io::StorageFaultKind::kEnospc);
  tracker_.observeSegment(SegmentKind::kParagraph, "f#p0", "f", "svc",
                          gen_.paragraph(5, 8));
  EXPECT_EQ(counted("bf_wal_records_lost_total"), 1u);
  // maintain() first notices the degradation, then (backoff elapsed,
  // delay 0) repairs with an emergency checkpoint + rotation.
  int spins = 0;
  while (!mgr.healthy() && spins++ < 16) (void)mgr.maintain(tracker_);
  EXPECT_TRUE(mgr.healthy());
  EXPECT_EQ(mgr.health(), DurabilityHealth::kHealthy);
  EXPECT_EQ(counted("bf_wal_repairs_total"), 1u);  // the first attempt heals
  EXPECT_EQ(counted("bf_wal_repair_failures_total"), 0u);

  // Post-heal mutations are durable again across a clean recovery.
  tracker_.observeSegment(SegmentKind::kParagraph, "post#p0", "post", "svc",
                          gen_.paragraph(5, 8));
  ASSERT_TRUE(mgr.wal().sync().ok());
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, RepairKeepsRetryingWhileStorageStaysBroken) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/42);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;  // append failures surface immediately
  cfg.repairBaseDelayMs = 0.0;
  cfg.repairMaxDelayMs = 0.0;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());

  // Break every write: appends drop AND repair checkpoints fail.
  io::StorageFaultConfig broken;
  broken.enospcProb = 1.0;
  fault.setDefaults(broken);
  tracker_.observeSegment(SegmentKind::kParagraph, "b#p0", "b", "svc",
                          gen_.paragraph(5, 8));
  const auto before = obs::registry().snapshot();
  for (int i = 0; i < 4; ++i) (void)mgr.maintain(tracker_);
  EXPECT_FALSE(mgr.healthy());
  const auto delta = obs::registry().snapshot().diff(before);
  EXPECT_GE(delta.counterValue("bf_wal_repair_failures_total"), 2u);
  EXPECT_EQ(delta.counterValue("bf_wal_repairs_total"), 0u);

  // Mutations keep succeeding the whole time (availability contract).
  const SegmentId id = tracker_.observeSegment(
      SegmentKind::kParagraph, "b#p1", "b", "svc", gen_.paragraph(5, 8));
  EXPECT_NE(id, kInvalidSegment);

  // Storage comes back: the next maintain() heals.
  fault.setDefaults(io::StorageFaultConfig{});
  int spins = 0;
  while (!mgr.healthy() && spins++ < 16) (void)mgr.maintain(tracker_);
  EXPECT_TRUE(mgr.healthy());
  ASSERT_TRUE(mgr.wal().sync().ok());
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, RepairWaitsForBackoffBeforeRetrying) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/43);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;
  cfg.repairBaseDelayMs = 3600000.0;  // an hour: no test-time retry
  cfg.repairMaxDelayMs = 3600000.0;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  const testutil::CounterDelta counted;
  fault.failNext(".bfw", 1, io::StorageFaultKind::kEnospc);
  tracker_.observeSegment(SegmentKind::kParagraph, "w#p0", "w", "svc",
                          gen_.paragraph(5, 8));
  for (int i = 0; i < 4; ++i) (void)mgr.maintain(tracker_);
  // Degraded was noticed, but the hour-long backoff gates the attempt.
  EXPECT_EQ(mgr.health(), DurabilityHealth::kDegraded);
  EXPECT_EQ(counted("bf_wal_repairs_total"), 0u);
  EXPECT_EQ(counted("bf_wal_repair_failures_total"), 0u);
}

TEST_F(WalTest, HealthGaugeAndLostCounterTrackTheStateMachine) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/44);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;
  cfg.repairBaseDelayMs = 0.0;
  cfg.repairMaxDelayMs = 0.0;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  EXPECT_EQ(obs::registry().snapshot().gaugeValue("bf_wal_health"), 0.0);

  const auto before = obs::registry().snapshot();
  fault.failNext(".bfw", 1, io::StorageFaultKind::kEnospc);
  tracker_.observeSegment(SegmentKind::kParagraph, "g#p0", "g", "svc",
                          gen_.paragraph(5, 8));
  (void)mgr.maintain(tracker_);  // notices → kDegraded
  EXPECT_EQ(obs::registry().snapshot().gaugeValue("bf_wal_health"), 1.0);
  int spins = 0;
  while (!mgr.healthy() && spins++ < 16) (void)mgr.maintain(tracker_);
  EXPECT_EQ(obs::registry().snapshot().gaugeValue("bf_wal_health"), 0.0);
  const auto delta = obs::registry().snapshot().diff(before);
  EXPECT_EQ(delta.counterValue("bf_wal_records_lost_total"), 1u);
  EXPECT_EQ(delta.counterValue("bf_wal_repairs_total"), 1u);
}

TEST_F(WalTest, QuotaHoldsWhenRotationFailsAfterSnapshotLands) {
  // Regression: checkpoint() used to prune generations only after a fully
  // successful checkpoint. When the snapshot landed but the log rotation
  // failed (every repair attempt of a storm takes this path), each attempt
  // stranded one more full checkpoint on disk. The keepGenerations
  // retention quota must hold after EVERY attempt whose snapshot landed.
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/46);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.repairBaseDelayMs = 0.0;
  cfg.repairMaxDelayMs = 0.0;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());

  for (int attempt = 0; attempt < 3; ++attempt) {
    // Dropped appends still consume sequences, so each attempt writes its
    // snapshot under a new name.
    tracker_.observeSegment(SegmentKind::kParagraph,
                            "r#p" + std::to_string(attempt), "r", "svc",
                            gen_.paragraph(4, 6));
    const std::uint64_t seq = mgr.wal().stats().nextSequence - 1;
    fault.failNext("wal-", 1, io::StorageFaultKind::kOpenFail);
    EXPECT_FALSE(mgr.checkpoint(tracker_).ok());
    EXPECT_FALSE(mgr.healthy());

    std::vector<std::string> checkpoints;
    for (const std::string& name : io::defaultVfs().listDir(dir_)) {
      if (name.ends_with(".bfc")) checkpoints.push_back(name);
    }
    EXPECT_LE(checkpoints.size(), cfg.keepGenerations)
        << "after failed attempt " << attempt;
    // The snapshot this attempt wrote is the newest and always survives.
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(seq));
    EXPECT_TRUE(std::ifstream(dir_ + "/checkpoint-" + hex + ".bfc").good())
        << "after failed attempt " << attempt;
  }

  // maintain() repairs (the retried rotation succeeds) and a fresh
  // recovery reproduces the live state.
  int spins = 0;
  while (!mgr.healthy() && spins++ < 16) (void)mgr.maintain(tracker_);
  EXPECT_TRUE(mgr.healthy());
  ASSERT_TRUE(mgr.wal().sync().ok());
  EXPECT_EQ(recoverFresh(), canon(tracker_));
}

TEST_F(WalTest, TornAppendWriteIsCaughtByRecoveryCrc) {
  io::FaultVfs fault(&io::defaultVfs(), /*seed=*/45);
  DurabilityConfig cfg = configFor();
  cfg.vfs = &fault;
  cfg.syncEachAppend = true;
  DurabilityManager mgr(cfg);
  ASSERT_TRUE(mgr.recoverAndAttach(tracker_).ok());
  tracker_.observeSegment(SegmentKind::kParagraph, "t#p0", "t", "svc",
                          gen_.paragraph(5, 8));
  const std::string durablePrefix = canon(tracker_);
  // The NEXT append is torn: a prefix lands, success is reported, the WAL
  // believes the record is durable. Only recovery-time CRC can catch it.
  fault.failNext(".bfw", 1, io::StorageFaultKind::kTornWrite);
  tracker_.observeSegment(SegmentKind::kParagraph, "t#p1", "t", "svc",
                          gen_.paragraph(5, 8));
  EXPECT_TRUE(mgr.wal().stats().healthy);  // the lie holds in-process

  // Crash now (no checkpoint): recovery lands on the durable prefix.
  tracker_.attachWal(nullptr);
  RecoveryStats stats;
  const std::string recovered = recoverFresh(&stats);
  EXPECT_EQ(recovered, durablePrefix);
}

TEST_F(WalTest, RecordBytesArePinned) {
  // The log is a byte contract like the snapshot export: every record
  // type, grams included, must encode to the same bytes whatever the
  // in-memory representation of a hash.
  constexpr SegmentKind kPar = SegmentKind::kParagraph;
  const std::string path = dir_ + "/pinned.bfw";
  WriteAheadLog wal;
  ASSERT_TRUE(wal.open(path, 5, false).ok());
  tracker_.attachWal(&wal);
  const std::string shared =
      "the quarterly merger terms remain strictly confidential until the "
      "board approves the final valuation and the press release";
  tracker_.observeSegment(kPar, "a#p0", "a", "svc", shared);
  tracker_.observeDocument("b", "svc",
                           "an unrelated opening paragraph about lunch plans "
                           "and the weather this week\n\n" +
                               shared);
  tracker_.observeSegment(kPar, "c#p0", "c", "svc",
                          "a short note about the weekly team lunch order");
  ASSERT_TRUE(tracker_.setSegmentThreshold("a#p0", 0.7));
  tracker_.removeSegmentByName("c#p0");
  tracker_.attachWal(nullptr);
  wal.close();
  // Pinned at BFWAL002: the BFWAL001 log of these mutations with u32 gram
  // hashes and no tenant slot.
  const std::string data = readFile(path);
  EXPECT_EQ(data.substr(0, 8), "BFWAL002");
  EXPECT_EQ(data.size(), 797u);
  EXPECT_EQ(util::crc32c(data), 0xdd815428U);
}

}  // namespace
}  // namespace bf::flow
