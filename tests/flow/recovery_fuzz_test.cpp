// Crash-recovery property test (DESIGN.md §11).
//
// Hundreds of seeded trials each run a random single-record mutation
// workload against a durability-managed tracker, remember the canonical
// exported state after EVERY WAL sequence (the oracle), then simulate a
// crash: the manager is destroyed and the on-disk files are corrupted —
// truncation at a random offset, a random bit flip, or deletion of the
// newest checkpoint. Recovery into a fresh tracker must always land on a
// PREFIX of the observed history: whatever sequence S recovery reports,
// the recovered state must byte-for-byte equal the oracle's state at S.
// There is no "partially applied" outcome — a corrupt checkpoint falls
// back to an older generation, a torn WAL frame discards the tail, and a
// broken prefix never lets later records in.
//
// Trials and seed are overridable for soak runs:
//   BF_RECOVERY_FUZZ_TRIALS (default 500)
//   BF_RECOVERY_FUZZ_SEED   (default 20260805)
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "counter_delta.h"
#include "flow/snapshot.h"
#include "flow/wal.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "util/clock.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Full paths of dir entries matching prefix/suffix, name-sorted (the
/// 16-hex-digit sequence makes name order == sequence order).
std::vector<std::string> listFiles(const std::string& dir,
                                   std::string_view prefix,
                                   std::string_view suffix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name.size() > prefix.size() + suffix.size() &&
        name.substr(0, prefix.size()) == prefix &&
        name.substr(name.size() - suffix.size()) == suffix) {
      out.push_back(dir + "/" + std::string(name));
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

enum class Corruption {
  kNone,
  kTruncateWal,
  kFlipWalByte,
  kTruncateNewestCheckpoint,
  kFlipCheckpointByte,
  kDeleteNewestCheckpoint,
};

const char* corruptionName(Corruption c) {
  switch (c) {
    case Corruption::kNone: return "none";
    case Corruption::kTruncateWal: return "truncate-wal";
    case Corruption::kFlipWalByte: return "flip-wal-byte";
    case Corruption::kTruncateNewestCheckpoint: return "truncate-checkpoint";
    case Corruption::kFlipCheckpointByte: return "flip-checkpoint-byte";
    case Corruption::kDeleteNewestCheckpoint: return "delete-checkpoint";
  }
  return "?";
}

/// Applies one corruption to the durability directory. Returns a
/// description for failure messages.
std::string corrupt(util::Rng& rng, const std::string& dir, Corruption mode) {
  const auto pickFrom = [&rng](const std::vector<std::string>& files) {
    return files[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint64_t>(files.size() - 1)))];
  };
  switch (mode) {
    case Corruption::kNone:
      return "none";
    case Corruption::kTruncateWal: {
      const auto wals = listFiles(dir, "wal-", ".bfw");
      if (wals.empty()) return "none (no wal)";
      const std::string path = pickFrom(wals);
      std::string data = readFile(path);
      const std::size_t cut = static_cast<std::size_t>(
          rng.uniform(0, data.empty() ? 0 : data.size() - 1));
      data.resize(cut);
      writeFile(path, data);
      return "truncated " + path + " to " + std::to_string(cut);
    }
    case Corruption::kFlipWalByte: {
      const auto wals = listFiles(dir, "wal-", ".bfw");
      if (wals.empty()) return "none (no wal)";
      const std::string path = pickFrom(wals);
      std::string data = readFile(path);
      if (data.empty()) return "none (empty wal)";
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, data.size() - 1));
      data[at] = static_cast<char>(data[at] ^
                                   (1u << rng.uniform(0, 7)));
      writeFile(path, data);
      return "flipped byte " + std::to_string(at) + " of " + path;
    }
    case Corruption::kTruncateNewestCheckpoint: {
      const auto cps = listFiles(dir, "checkpoint-", ".bfc");
      if (cps.empty()) return "none (no checkpoint)";
      const std::string path = cps.back();
      std::string data = readFile(path);
      const std::size_t cut = static_cast<std::size_t>(
          rng.uniform(0, data.empty() ? 0 : data.size() - 1));
      data.resize(cut);
      writeFile(path, data);
      return "truncated " + path + " to " + std::to_string(cut);
    }
    case Corruption::kFlipCheckpointByte: {
      const auto cps = listFiles(dir, "checkpoint-", ".bfc");
      if (cps.empty()) return "none (no checkpoint)";
      const std::string path = pickFrom(cps);
      std::string data = readFile(path);
      if (data.empty()) return "none (empty checkpoint)";
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, data.size() - 1));
      data[at] = static_cast<char>(data[at] ^
                                   (1u << rng.uniform(0, 7)));
      writeFile(path, data);
      return "flipped byte " + std::to_string(at) + " of " + path;
    }
    case Corruption::kDeleteNewestCheckpoint: {
      const auto cps = listFiles(dir, "checkpoint-", ".bfc");
      if (cps.empty()) return "none (no checkpoint)";
      std::remove(cps.back().c_str());
      return "deleted " + cps.back();
    }
  }
  return "?";
}

/// Every association exported by the recovered tracker must point at a
/// live segment — a dangling association would mean a partially applied
/// record slipped through.
void expectNoDanglingAssociations(const FlowTracker& tracker) {
  for (SegmentKind kind : {SegmentKind::kParagraph, SegmentKind::kDocument}) {
    tracker.hashDb().forEachAssociation(
        kind, [&](text::Hash hash, SegmentId segment, util::Timestamp) {
          EXPECT_NE(tracker.segmentDb().find(segment), nullptr)
              << "association for hash " << hash
              << " points at missing segment " << segment;
        });
  }
}

TEST(RecoveryFuzzTest, RecoveredStateIsAlwaysAPrefixOfHistory) {
  const std::uint64_t trials = envU64("BF_RECOVERY_FUZZ_TRIALS", 500);
  const std::uint64_t baseSeed = envU64("BF_RECOVERY_FUZZ_SEED", 20260805);
  const std::string baseDir =
      "/tmp/bf_recovery_fuzz_" + std::to_string(static_cast<long>(::getpid()));

  std::uint64_t cleanTrials = 0;
  std::uint64_t corruptTrials = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = baseSeed + trial;
    util::Rng rng(seed);
    corpus::TextGenerator gen(&rng, /*vocabularySize=*/2000);
    const std::string dir = baseDir + "_" + std::to_string(trial);
    (void)std::system(("rm -rf '" + dir + "'").c_str());

    DurabilityConfig cfg;
    cfg.directory = dir;
    cfg.secret = rng.chance(0.5) ? "fuzz-secret" : "";
    cfg.checkpointEveryRecords = rng.uniform(5, 14);
    cfg.keepGenerations = 0;  // keep every generation: any prefix replayable

    util::LogicalClock clock;
    FlowTracker tracker(TrackerConfig{}, &clock);
    auto mgr = std::make_unique<DurabilityManager>(cfg);
    {
      auto boot = mgr->recoverAndAttach(tracker);
      ASSERT_TRUE(boot.ok()) << boot.errorMessage() << " (trial " << trial
                             << ", seed " << seed << ")";
    }

    // Oracle: canonical state after every WAL sequence. Every op below
    // appends AT MOST ONE record, so each sequence boundary is an op
    // boundary and the oracle is total over reachable prefixes.
    std::map<std::uint64_t, std::string> oracle;
    oracle[0] = exportState(tracker);
    std::vector<std::string> liveNames;

    const std::uint64_t ops = rng.uniform(12, 30);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.55 || liveNames.empty()) {
        const std::string name = "f#p" + std::to_string(rng.uniform(0, 9));
        tracker.observeSegment(SegmentKind::kParagraph, name, "fuzz", "svc",
                               gen.paragraph(2, 4));
        if (std::find(liveNames.begin(), liveNames.end(), name) ==
            liveNames.end()) {
          liveNames.push_back(name);
        }
      } else if (dice < 0.70) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform(0, liveNames.size() - 1));
        tracker.removeSegmentByName(liveNames[at]);
        liveNames.erase(liveNames.begin() +
                        static_cast<std::ptrdiff_t>(at));
      } else if (dice < 0.90) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform(0, liveNames.size() - 1));
        (void)tracker.setSegmentThreshold(liveNames[at], rng.uniform01());
      } else {
        auto s = mgr->checkpoint(tracker);
        ASSERT_TRUE(s.ok()) << s.errorMessage();
      }
      auto due = mgr->maintain(tracker);
      ASSERT_TRUE(due.ok()) << due.errorMessage();
      oracle[mgr->wal().stats().nextSequence - 1] = exportState(tracker);
    }

    // Crash: drop the manager (closes the WAL fd), then corrupt the
    // directory.
    tracker.attachWal(nullptr);
    mgr.reset();
    const Corruption mode = static_cast<Corruption>(rng.uniform(0, 5));
    const std::string what = corrupt(rng, dir, mode);
    if (mode == Corruption::kNone) ++cleanTrials;
    else ++corruptTrials;

    // Recover into a fresh tracker; whatever sequence recovery reports,
    // the state must be EXACTLY the oracle's state at that sequence.
    util::LogicalClock clock2;
    FlowTracker recovered(TrackerConfig{}, &clock2);
    DurabilityManager mgr2(cfg);
    auto stats = mgr2.recoverAndAttach(recovered);
    ASSERT_TRUE(stats.ok()) << stats.errorMessage() << " (trial " << trial
                            << ", seed " << seed << ", " << what << ")";
    const std::uint64_t s = stats.value().lastSequence;
    recovered.attachWal(nullptr);

    ASSERT_EQ(oracle.count(s), 1u)
        << "recovered to sequence " << s << " which is not an op boundary"
        << " (trial " << trial << ", seed " << seed << ", "
        << corruptionName(mode) << ": " << what << ")";
    const std::string got = exportState(recovered);
    EXPECT_TRUE(got == oracle[s])
        << "recovered state at sequence " << s << " diverges from history"
        << " (got " << got.size() << " bytes, want " << oracle[s].size()
        << "; trial " << trial << ", seed " << seed << ", "
        << corruptionName(mode) << ": " << what << ")";
    if (mode == Corruption::kNone) {
      EXPECT_EQ(s, oracle.rbegin()->first)
          << "clean recovery lost records (trial " << trial << ", seed "
          << seed << ")";
    }
    expectNoDanglingAssociations(recovered);

    if (::testing::Test::HasFailure()) {
      return;  // keep the failing trial's files for inspection
    }
    (void)std::system(("rm -rf '" + dir + "'").c_str());
  }
  // The mode draw is uniform; with >=100 trials both kinds must occur.
  if (trials >= 100) {
    EXPECT_GT(cleanTrials, 0u);
    EXPECT_GT(corruptTrials, 0u);
  }
}

// ---- Runtime storage-fault fuzz (ISSUE 7) ---------------------------------
//
// The trial above corrupts files AT REST; this one makes the storage lie
// WHILE the workload runs. Each trial opens a seeded fault window (ENOSPC,
// short writes, torn writes, fsync failures at a random rate), keeps
// mutating through it, then closes the window and drives maintain() until
// the manager self-heals. Invariants per trial:
//   * the manager returns to healthy() once storage recovers;
//   * post-heal mutations are provably durable across a crash;
//   * recovery lands byte-for-byte on the oracle state at its reported
//     sequence — never a partial import, faults or not.
//
// Trials and seed are overridable for soak runs:
//   BF_STORAGE_FUZZ_TRIALS (default 300)
//   BF_STORAGE_FUZZ_SEED   (default 20260809)
TEST(RecoveryFuzzTest, SelfHealsAfterInjectedStorageFaultWindow) {
  const std::uint64_t trials = envU64("BF_STORAGE_FUZZ_TRIALS", 300);
  const std::uint64_t baseSeed = envU64("BF_STORAGE_FUZZ_SEED", 20260809);
  const std::string baseDir =
      "/tmp/bf_storage_fuzz_" + std::to_string(static_cast<long>(::getpid()));

  std::uint64_t trialsWithFaults = 0;
  std::uint64_t trialsWithLostRecords = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = baseSeed + trial;
    util::Rng rng(seed);
    corpus::TextGenerator gen(&rng, /*vocabularySize=*/2000);
    const std::string dir = baseDir + "_" + std::to_string(trial);
    (void)std::system(("rm -rf '" + dir + "'").c_str());

    const testutil::CounterDelta counted;
    const auto faults = [&counted] {
      return counted("bf_storage_fault_injected_total");
    };
    io::FaultVfs fault(&io::defaultVfs(), seed ^ 0x73746f7261676521ull);
    DurabilityConfig cfg;
    cfg.directory = dir;
    cfg.vfs = &fault;
    cfg.secret = rng.chance(0.5) ? "fuzz-secret" : "";
    cfg.checkpointEveryRecords = rng.uniform(5, 14);
    cfg.keepGenerations = 0;  // keep every generation: any prefix replayable
    cfg.syncEachAppend = rng.chance(0.5);  // surface faults on appends too
    cfg.repairBaseDelayMs = 0.0;  // fuzz never waits on the backoff clock
    cfg.repairMaxDelayMs = 0.0;

    util::LogicalClock clock;
    FlowTracker tracker(TrackerConfig{}, &clock);
    auto mgr = std::make_unique<DurabilityManager>(cfg);
    {
      auto boot = mgr->recoverAndAttach(tracker);
      ASSERT_TRUE(boot.ok()) << boot.errorMessage() << " (trial " << trial
                             << ", seed " << seed << ")";
    }

    std::map<std::uint64_t, std::string> oracle;
    oracle[0] = exportState(tracker);
    std::vector<std::string> liveNames;

    const std::uint64_t ops = rng.uniform(14, 30);
    // Fault window [faultFrom, faultTo): storage misbehaves at `rate`.
    const std::uint64_t faultFrom = rng.uniform(1, ops / 2);
    const std::uint64_t faultTo = rng.uniform(faultFrom + 1, ops - 1);
    const double rates[] = {0.05, 0.15, 0.4};
    const double rate = rates[rng.uniform(0, 2)];

    for (std::uint64_t op = 0; op < ops; ++op) {
      if (op == faultFrom) {
        fault.setDefaults(io::StorageFaultConfig::uniformRate(rate));
      }
      if (op == faultTo) fault.setDefaults(io::StorageFaultConfig{});
      const double dice = rng.uniform01();
      if (dice < 0.60 || liveNames.empty()) {
        const std::string name = "f#p" + std::to_string(rng.uniform(0, 9));
        tracker.observeSegment(SegmentKind::kParagraph, name, "fuzz", "svc",
                               gen.paragraph(2, 4));
        if (std::find(liveNames.begin(), liveNames.end(), name) ==
            liveNames.end()) {
          liveNames.push_back(name);
        }
      } else if (dice < 0.75) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform(0, liveNames.size() - 1));
        tracker.removeSegmentByName(liveNames[at]);
        liveNames.erase(liveNames.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform(0, liveNames.size() - 1));
        (void)tracker.setSegmentThreshold(liveNames[at], rng.uniform01());
      }
      // maintain() is the production driver: due checkpoints while
      // healthy, repair attempts while degraded. Failures inside the
      // fault window are the point — never assert on its status there.
      (void)mgr->maintain(tracker);
      oracle[mgr->wal().stats().nextSequence - 1] = exportState(tracker);
    }

    if (faults() > 0) ++trialsWithFaults;
    if (counted("bf_wal_records_lost_total") > 0) ++trialsWithLostRecords;

    // The window is closed: the manager must self-heal in a few
    // maintenance rounds (notice → repair, possibly once more after a
    // straggling torn tail).
    int spins = 0;
    while (!mgr->healthy() && spins++ < 32) (void)mgr->maintain(tracker);
    ASSERT_TRUE(mgr->healthy())
        << "manager failed to self-heal after the fault window (trial "
        << trial << ", seed " << seed << ", rate " << rate << ", faults "
        << faults() << ")";

    // Post-heal mutations must be durable across a crash.
    for (int extra = 0; extra < 3; ++extra) {
      tracker.observeSegment(SegmentKind::kParagraph,
                             "heal#p" + std::to_string(extra), "fuzz", "svc",
                             gen.paragraph(2, 4));
      oracle[mgr->wal().stats().nextSequence - 1] = exportState(tracker);
    }
    {
      auto final = mgr->checkpoint(tracker);
      ASSERT_TRUE(final.ok()) << final.errorMessage() << " (trial " << trial
                              << ", seed " << seed << ")";
    }
    const std::uint64_t durableSeq = mgr->wal().stats().nextSequence - 1;

    // Crash, then recover with a CLEAN vfs (the process restarts on a
    // machine whose disk behaves again).
    tracker.attachWal(nullptr);
    mgr.reset();
    DurabilityConfig cleanCfg = cfg;
    cleanCfg.vfs = nullptr;
    util::LogicalClock clock2;
    FlowTracker recovered(TrackerConfig{}, &clock2);
    DurabilityManager mgr2(cleanCfg);
    auto stats = mgr2.recoverAndAttach(recovered);
    ASSERT_TRUE(stats.ok()) << stats.errorMessage() << " (trial " << trial
                            << ", seed " << seed << ")";
    const std::uint64_t s = stats.value().lastSequence;
    recovered.attachWal(nullptr);

    ASSERT_EQ(s, durableSeq)
        << "post-heal checkpoint did not stick (trial " << trial << ", seed "
        << seed << ", rate " << rate << ")";
    ASSERT_EQ(oracle.count(s), 1u)
        << "recovered to sequence " << s << " which is not an op boundary"
        << " (trial " << trial << ", seed " << seed << ")";
    EXPECT_TRUE(exportState(recovered) == oracle[s])
        << "recovered state at sequence " << s << " diverges from history"
        << " (trial " << trial << ", seed " << seed << ", rate " << rate
        << ", faults " << faults() << ")";
    expectNoDanglingAssociations(recovered);

    if (::testing::Test::HasFailure()) {
      return;  // keep the failing trial's files for inspection
    }
    (void)std::system(("rm -rf '" + dir + "'").c_str());
  }
  // The fault rates are high enough that a run of this size must actually
  // have exercised the machinery, including real record loss.
  if (trials >= 100) {
    EXPECT_GT(trialsWithFaults, trials / 3);
    EXPECT_GT(trialsWithLostRecords, 0u);
  }
}

}  // namespace
}  // namespace bf::flow
