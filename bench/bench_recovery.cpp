// Recovery bench: durability cost and crash-recovery time for the
// WAL/checkpoint subsystem (DESIGN.md §11).
//
// Phases:
//   1. WAL append path: observe N segments with the log attached and
//      checkpointing disabled — the whole history lands in one WAL tail.
//   2. Crash recovery: a fresh tracker recovers from the bootstrap
//      checkpoint plus that N-record tail (the acceptance scenario: replay
//      time for a 10k-segment log at paper scale).
//   3. Checkpoint: explicit checkpoint cost, then recovery again — now
//      served from the checkpoint alone with zero records replayed.
//   4. syncEachAppend: per-append fsync cost against the default
//      sync-at-checkpoint policy, on a reduced record count.
//
// BF_RECOVERY_SEGMENTS overrides the segment count (default: 2000 quick,
// 10000 paper). RESULT lines feed scripts/bench_report.py.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "corpus/text_generator.h"
#include "flow/snapshot.h"
#include "flow/tracker.h"
#include "flow/wal.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace bf;

flow::DurabilityConfig configFor(const std::string& dir,
                                 bool syncEachAppend = false) {
  flow::DurabilityConfig cfg;
  cfg.directory = dir;
  cfg.checkpointEveryRecords = 1ull << 30;  // benches checkpoint explicitly
  cfg.syncEachAppend = syncEachAppend;
  return cfg;
}

/// Observes `texts` into a fresh tracker attached to a fresh log in `dir`.
/// Returns observes/second. The manager is handed back so the caller can
/// crash (destroy) or checkpoint it.
double runAppendPhase(const std::string& dir,
                      const std::vector<std::string>& texts,
                      bool syncEachAppend,
                      std::unique_ptr<util::LogicalClock>& clockOut,
                      std::unique_ptr<flow::FlowTracker>& trackerOut,
                      std::unique_ptr<flow::DurabilityManager>& mgrOut) {
  (void)std::system(("rm -rf '" + dir + "'").c_str());
  clockOut = std::make_unique<util::LogicalClock>();
  trackerOut = std::make_unique<flow::FlowTracker>(flow::TrackerConfig{},
                                                   clockOut.get());
  mgrOut = std::make_unique<flow::DurabilityManager>(
      configFor(dir, syncEachAppend));
  if (!mgrOut->recoverAndAttach(*trackerOut).ok()) std::abort();

  util::Stopwatch watch;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    trackerOut->observeSegment(flow::SegmentKind::kParagraph,
                               "doc" + std::to_string(i) + "#p0",
                               "doc" + std::to_string(i), "internal",
                               texts[i]);
  }
  const double seconds = watch.elapsedMillis() / 1000.0;
  return static_cast<double>(texts.size()) / (seconds > 0 ? seconds : 1e-9);
}

}  // namespace

int main() {
  bench::printHeader("Recovery", "WAL replay and checkpoint load time");

  std::size_t segments = bench::paperScale() ? 10000 : 2000;
  if (const char* env = std::getenv("BF_RECOVERY_SEGMENTS"); env != nullptr) {
    segments = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  const std::string dir =
      "/tmp/bf_bench_recovery_" + std::to_string(static_cast<long>(getpid()));

  // Pre-generate the corpus so fingerprinting input is identical across
  // phases and text generation stays outside every timed region.
  util::Rng rng(1234);
  corpus::TextGenerator gen(&rng, /*vocabSize=*/4000);
  std::vector<std::string> texts;
  texts.reserve(segments);
  std::size_t corpusBytes = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    texts.push_back(gen.paragraph(2, 4));
    corpusBytes += texts.back().size();
  }

  // ---- Phase 1: append path ----------------------------------------------
  std::unique_ptr<util::LogicalClock> clock;
  std::unique_ptr<flow::FlowTracker> tracker;
  std::unique_ptr<flow::DurabilityManager> mgr;
  const double observesPerS =
      runAppendPhase(dir, texts, /*syncEachAppend=*/false, clock, tracker,
                     mgr);
  std::printf("segments: %zu (%.1f MiB text), observe+log: %.0f segments/s\n",
              segments, corpusBytes / (1024.0 * 1024.0), observesPerS);

  // ---- Phase 2: crash, recover from the WAL tail -------------------------
  const std::string liveState = flow::exportState(*tracker);
  tracker->attachWal(nullptr);
  mgr.reset();  // crash: the log fd closes, no checkpoint of this state

  auto clock2 = std::make_unique<util::LogicalClock>();
  auto recovered =
      std::make_unique<flow::FlowTracker>(flow::TrackerConfig{}, clock2.get());
  auto mgr2 = std::make_unique<flow::DurabilityManager>(configFor(dir));
  auto stats = mgr2->recoverAndAttach(*recovered);
  if (!stats.ok()) {
    std::printf("recovery FAILED: %s\n", stats.errorMessage().c_str());
    return 1;
  }
  clock2->advanceTo(stats.value().maxTimestamp + 1);
  const bool walStateMatches = flow::exportState(*recovered) == liveState;
  const double walReplayMs = stats.value().replayMillis;
  std::printf("WAL replay: %llu records in %.1f ms (%.0f records/s), "
              "state match: %s\n",
              static_cast<unsigned long long>(stats.value().replayedRecords),
              walReplayMs,
              stats.value().replayedRecords / (walReplayMs / 1000.0),
              walStateMatches ? "yes" : "NO");

  // ---- Phase 3: checkpoint save, then recovery from checkpoint only ------
  util::Stopwatch ckWatch;
  if (!mgr2->checkpoint(*recovered).ok()) {
    std::printf("checkpoint FAILED\n");
    return 1;
  }
  const double checkpointSaveMs = ckWatch.elapsedMillis();
  recovered->attachWal(nullptr);
  mgr2.reset();

  auto clock3 = std::make_unique<util::LogicalClock>();
  auto fromCheckpoint =
      std::make_unique<flow::FlowTracker>(flow::TrackerConfig{}, clock3.get());
  auto mgr3 = std::make_unique<flow::DurabilityManager>(configFor(dir));
  auto stats3 = mgr3->recoverAndAttach(*fromCheckpoint);
  if (!stats3.ok()) {
    std::printf("checkpoint recovery FAILED: %s\n",
                stats3.errorMessage().c_str());
    return 1;
  }
  clock3->advanceTo(stats3.value().maxTimestamp + 1);
  const bool ckStateMatches = flow::exportState(*fromCheckpoint) == liveState;
  const double checkpointLoadMs = stats3.value().replayMillis;
  std::printf("checkpoint: save %.1f ms, load %.1f ms (replayed %llu), "
              "state match: %s\n",
              checkpointSaveMs, checkpointLoadMs,
              static_cast<unsigned long long>(stats3.value().replayedRecords),
              ckStateMatches ? "yes" : "NO");
  fromCheckpoint->attachWal(nullptr);
  mgr3.reset();

  bench::result(
      "{\"bench\":\"recovery\",\"segments\":" + std::to_string(segments) +
      ",\"observes_per_s\":" + std::to_string(observesPerS) +
      ",\"wal_replay_ms\":" + std::to_string(walReplayMs) +
      ",\"checkpoint_save_ms\":" + std::to_string(checkpointSaveMs) +
      ",\"checkpoint_load_ms\":" + std::to_string(checkpointLoadMs) + "}");

  // ---- Phase 4: per-append fsync cost ------------------------------------
  bench::printHeader("Sync", "syncEachAppend vs sync-at-checkpoint");
  const std::size_t syncSegments =
      std::max<std::size_t>(segments / 10, 100);
  const std::vector<std::string> syncTexts(texts.begin(),
                                           texts.begin() + syncSegments);
  double perMode[2] = {0, 0};
  for (const bool sync : {false, true}) {
    std::unique_ptr<util::LogicalClock> c;
    std::unique_ptr<flow::FlowTracker> t;
    std::unique_ptr<flow::DurabilityManager> m;
    perMode[sync ? 1 : 0] =
        runAppendPhase(dir + "_sync", syncTexts, sync, c, t, m);
    t->attachWal(nullptr);
    std::printf("syncEachAppend=%d: %.0f segments/s\n", sync ? 1 : 0,
                perMode[sync ? 1 : 0]);
  }
  bench::result("{\"bench\":\"wal_sync\",\"segments\":" +
                std::to_string(syncSegments) + ",\"batched_per_s\":" +
                std::to_string(perMode[0]) + ",\"fsync_per_s\":" +
                std::to_string(perMode[1]) + "}");

  // ---- Phase 5: durability-fault sweep -----------------------------------
  // Goodput while FaultVfs injects storage faults at a fixed per-op rate,
  // with the repair state machine healing inline (zero backoff, so the
  // sweep measures repair work, not sleeping). rate=0 is the control: the
  // FaultVfs decorator is on the path but inert, so its interposition cost
  // is visible as the delta against the plain Phase-4 fsync number.
  bench::printHeader("Durability faults",
                     "goodput and self-healing under injected faults");
  const std::size_t faultSegments = std::max<std::size_t>(segments / 10, 200);
  const std::vector<std::string> faultTexts(texts.begin(),
                                            texts.begin() + faultSegments);
  bool faultSweepOk = true;
  for (const double rate : {0.0, 0.001, 0.01, 0.05}) {
    const std::string fdir = dir + "_fault";
    (void)std::system(("rm -rf '" + fdir + "'").c_str());
    io::FaultVfs fault(&io::defaultVfs(), /*seed=*/0xb0ffa117ull);
    auto fc = std::make_unique<util::LogicalClock>();
    auto ft = std::make_unique<flow::FlowTracker>(flow::TrackerConfig{},
                                                  fc.get());
    flow::DurabilityConfig cfg;
    cfg.directory = fdir;
    cfg.checkpointEveryRecords = 1ull << 30;
    cfg.syncEachAppend = true;  // every append touches storage: faults fire
    cfg.vfs = &fault;
    cfg.repairBaseDelayMs = 0.0;
    cfg.repairMaxDelayMs = 0.0;
    auto fm = std::make_unique<flow::DurabilityManager>(cfg);
    if (!fm->recoverAndAttach(*ft).ok()) {
      std::printf("fault-sweep attach FAILED (rate %.3f)\n", rate);
      return 1;
    }
    // Arm faults only after the bootstrap checkpoint/WAL exist.
    fault.setDefaults(io::StorageFaultConfig::uniformRate(rate));

    const auto before = obs::registry().snapshot();
    util::Stopwatch watch;
    double repairMs = 0.0;
    for (std::size_t i = 0; i < faultTexts.size(); ++i) {
      std::string doc = "f";
      doc += std::to_string(i);
      ft->observeSegment(flow::SegmentKind::kParagraph, doc + "#p0", doc,
                         "internal", faultTexts[i]);
      util::Stopwatch repairWatch;
      (void)fm->maintain(*ft);
      repairMs += repairWatch.elapsedMillis();
    }
    const double seconds = watch.elapsedMillis() / 1000.0;
    // Disarm and let the state machine close any open degraded window so
    // the sweep always ends (and reports) from a healed store.
    fault.setDefaults(io::StorageFaultConfig{});
    for (int spin = 0; spin < 64 && !fm->healthy(); ++spin) {
      (void)fm->maintain(*ft);
    }
    if (!fm->healthy()) faultSweepOk = false;
    const auto delta = obs::registry().snapshot().diff(before);
    const std::uint64_t lost = delta.counterValue("bf_wal_records_lost_total");
    const std::uint64_t repairs = delta.counterValue("bf_wal_repairs_total");
    const double goodput =
        static_cast<double>(faultTexts.size() - lost) /
        (seconds > 0 ? seconds : 1e-9);
    std::printf("rate %.3f: %.0f durable segments/s, lost %llu, "
                "repairs %llu, repair time %.1f ms, healed: %s\n",
                rate, goodput, static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(repairs), repairMs,
                fm->healthy() ? "yes" : "NO");
    bench::result("{\"bench\":\"durability_faults\",\"rate\":" +
                  std::to_string(rate) + ",\"segments\":" +
                  std::to_string(faultTexts.size()) + ",\"goodput_per_s\":" +
                  std::to_string(goodput) + ",\"records_lost\":" +
                  std::to_string(lost) + ",\"repairs\":" +
                  std::to_string(repairs) + ",\"repair_ms\":" +
                  std::to_string(repairMs) + "}");
    ft->attachWal(nullptr);
    fm.reset();
    (void)std::system(("rm -rf '" + fdir + "'").c_str());
  }

  (void)std::system(("rm -rf '" + dir + "' '" + dir + "_sync'").c_str());
  bench::dumpMetrics();
  return (walStateMatches && ckStateMatches && faultSweepOk) ? 0 : 1;
}
