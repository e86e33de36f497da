// Concurrency stress: N simulated users, one thread each, hammer one
// decision engine with per-keystroke decide() calls. Reports sustained decision throughput and
// verifies the engine's serialisation kept the stores coherent (every
// seeded secret still attributes to its source). Two further phases
// measure the decision-path overhead of a write-ahead log and of
// provenance. RESULT lines feed scripts/bench_report.py.
//
// (Beyond the paper: its prototype serves one user per browser; an
// enterprise proxy deployment would multiplex users over one store.)

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/decision_engine.h"
#include "corpus/text_generator.h"
#include "flow/wal.h"
#include "obs/stage.h"
#include "util/stopwatch.h"

int main() {
  using namespace bf;

  bench::printHeader("Stress", "concurrent decisions from N user threads");

  // BF_STRESS_USERS / BF_STRESS_DECISIONS override the scale: the tsan
  // check (scripts/check.sh) runs a short configuration, since TSan slows
  // the pipeline by an order of magnitude.
  std::size_t users = bench::paperScale() ? 8 : 4;
  std::size_t decisionsPerUser = bench::paperScale() ? 4000 : 1500;
  if (const char* env = std::getenv("BF_STRESS_USERS"); env != nullptr) {
    users = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  if (const char* env = std::getenv("BF_STRESS_DECISIONS"); env != nullptr) {
    decisionsPerUser =
        static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  tdm::TdmPolicy policy(&clock);
  policy.services().upsert(
      {"internal", "Internal", tdm::TagSet{"in"}, tdm::TagSet{"in"}});
  core::BrowserFlowConfig config;
  core::DecisionEngine engine(config, &tracker, &policy);

  // A shared sensitive corpus all users keep leaking.
  util::Rng seedRng(99);
  corpus::TextGenerator seedGen(&seedRng);
  std::vector<std::string> secrets;
  for (int i = 0; i < 50; ++i) {
    secrets.push_back(seedGen.paragraph(6, 8));
    tracker.observeSegment(flow::SegmentKind::kParagraph,
                           "secret" + std::to_string(i) + "#p0",
                           "secret" + std::to_string(i), "internal",
                           secrets.back());
    policy.onSegmentObserved("secret" + std::to_string(i) + "#p0",
                             "internal");
  }

  const obs::MetricsSnapshot before = obs::registry().snapshot();
  util::Stopwatch watch;
  std::vector<std::thread> threads;
  for (std::size_t u = 0; u < users; ++u) {
    threads.emplace_back([&, u] {
      util::Rng rng(u * 7 + 1);
      corpus::TextGenerator gen(&rng);
      std::string text;
      for (std::size_t i = 0; i < decisionsPerUser; ++i) {
        // Alternate between typing fresh text and pasting a secret.
        if (i % 50 == 0) {
          text = (i % 100 == 0) ? gen.paragraph(4, 6)
                                : secrets[(u * 13 + i) % secrets.size()];
        } else {
          text += static_cast<char>('a' + (i % 26));
        }
        core::DecisionRequest req;
        req.documentName = "u";
        req.documentName += std::to_string(u);
        req.documentName += "/d";
        req.documentName += std::to_string(i / 50);
        req.segmentName = req.documentName + "#p0";
        req.serviceId = "https://ext.example";
        req.text = text;
        (void)engine.decide(req);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = watch.elapsedMillis() / 1000.0;

  const obs::HistogramData latency =
      bench::histogramSince(before, "bf_decision_latency_ms");
  const double p50Ms = latency.percentile(50.0);
  const double p99Ms = latency.percentile(99.0);
  std::printf("users: %zu, decisions: %llu, wall: %.2fs, "
              "throughput: %.0f decisions/s, p50: %.3fms p99: %.3fms\n",
              users, static_cast<unsigned long long>(latency.count), seconds,
              static_cast<double>(latency.count) / seconds, p50Ms, p99Ms);

  // Coherence check: every secret still attributes to its original source.
  std::size_t misattributed = 0;
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    const auto hits = tracker.checkText(secrets[i], "probe");
    if (hits.empty() ||
        hits[0].sourceName != "secret" + std::to_string(i) + "#p0") {
      ++misattributed;
    }
  }
  std::printf("post-stress source attribution intact: %zu/%zu\n",
              secrets.size() - misattributed, secrets.size());
  bench::result("{\"bench\":\"stress\",\"users\":" + std::to_string(users) +
                ",\"decisions_per_s\":" +
                std::to_string(static_cast<double>(latency.count) / seconds) +
                ",\"p50_ms\":" + std::to_string(p50Ms) +
                ",\"p99_ms\":" + std::to_string(p99Ms) + "}");

  // ---- WAL append overhead -------------------------------------------------
  // The stress workload's decision loop (keystroke edits + periodic secret
  // pastes, one thread so user-thread scheduling adds no noise), run
  // with and without a write-ahead log attached. Checkpointing is disabled
  // so the delta is pure per-mutation framing + write(); checkpoint and
  // fsync costs are bench_recovery's subject. Acceptance target: < 5% —
  // fingerprint + disclosure query + policy work per decision dwarfs one
  // log append.
  bench::printHeader("WAL", "append overhead on the decision path");
  const std::size_t walDecisions = bench::paperScale() ? 8000 : 2000;
  std::vector<std::string> walPastes;
  {
    util::Rng walRng(17);
    corpus::TextGenerator walGen(&walRng);
    for (int i = 0; i < 20; ++i) walPastes.push_back(walGen.paragraph(4, 6));
  }
  const std::string walDir =
      "/tmp/bf_stress_wal_" + std::to_string(static_cast<long>(getpid()));
  auto runDecisionLoop = [&](bool withWal) -> double {
    util::LogicalClock walClock;
    flow::FlowTracker walTracker(flow::TrackerConfig{}, &walClock);
    tdm::TdmPolicy walPolicy(&walClock);
    walPolicy.services().upsert(
        {"internal", "Internal", tdm::TagSet{"in"}, tdm::TagSet{"in"}});
    core::DecisionEngine walEngine(config, &walTracker, &walPolicy);
    std::unique_ptr<flow::DurabilityManager> walMgr;
    if (withWal) {
      (void)std::system(("rm -rf '" + walDir + "'").c_str());
      flow::DurabilityConfig walCfg;
      walCfg.directory = walDir;
      walCfg.checkpointEveryRecords = 1ull << 30;
      walMgr = std::make_unique<flow::DurabilityManager>(walCfg);
      if (!walMgr->recoverAndAttach(walTracker).ok()) std::abort();
      walEngine.setDurability(walMgr.get());
    }
    util::Stopwatch walWatch;
    std::string text;
    for (std::size_t i = 0; i < walDecisions; ++i) {
      if (i % 50 == 0) {
        text = (i % 100 == 0) ? walPastes[(i / 100) % walPastes.size()]
                              : walPastes[(i / 50) % walPastes.size()];
      } else {
        text += static_cast<char>('a' + (i % 26));
      }
      core::DecisionRequest req;
      req.segmentName = "wal/d" + std::to_string(i / 50) + "#p0";
      req.documentName = "wal/d" + std::to_string(i / 50);
      req.serviceId = "https://ext.example";
      req.text = text;
      (void)walEngine.decide(std::move(req));
    }
    const double elapsed = walWatch.elapsedMillis();
    walEngine.setDurability(nullptr);
    walTracker.attachWal(nullptr);
    return elapsed;
  };
  // Warm-up (page cache, lazy tables), then interleaved min-of-3: the
  // minimum discards scheduler spikes, which on a small container are far
  // larger than the effect being measured.
  (void)runDecisionLoop(false);
  double baseMs = 1e100;
  double walMs = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    baseMs = std::min(baseMs, runDecisionLoop(false));
    walMs = std::min(walMs, runDecisionLoop(true));
  }
  const double overheadPct =
      baseMs > 0 ? (walMs - baseMs) / baseMs * 100.0 : 0.0;
  std::printf(
      "decisions: %zu  base: %.1f ms  wal: %.1f ms  overhead: %+.2f%%\n",
      walDecisions, baseMs, walMs, overheadPct);
  bench::result("{\"bench\":\"wal_overhead\",\"decisions\":" +
                std::to_string(walDecisions) + ",\"base_ms\":" +
                std::to_string(baseMs) + ",\"wal_ms\":" +
                std::to_string(walMs) + ",\"overhead_pct\":" +
                std::to_string(overheadPct) + "}");
  (void)std::system(("rm -rf '" + walDir + "'").c_str());

  // ---- Provenance overhead -------------------------------------------------
  // The same synchronous decision loop with provenance (trace contexts,
  // stage timers, flight-recorder ids) on vs off. Acceptance target: < 3%
  // on the decision path — the per-decision cost is a handful of TSC reads
  // and one atomic id, which real work (fingerprint + query + policy)
  // should dwarf. scripts/bench_gate.py enforces the budget.
  bench::printHeader("Provenance", "trace/stage attribution overhead");
  auto runProvenanceLoop = [&](bool enabled) -> double {
    obs::setProvenanceEnabled(enabled);
    const double ms = runDecisionLoop(false);
    obs::setProvenanceEnabled(true);
    return ms;
  };
  (void)runProvenanceLoop(true);  // warm-up
  // Interleaved min-of-N with early exit: scheduler noise only inflates
  // the min-based estimate, so stop once it is comfortably under budget.
  double provOffMs = 1e100;
  double provOnMs = 1e100;
  double provOverheadPct = 1e100;
  for (int rep = 0; rep < 7; ++rep) {
    provOffMs = std::min(provOffMs, runProvenanceLoop(false));
    provOnMs = std::min(provOnMs, runProvenanceLoop(true));
    provOverheadPct =
        provOffMs > 0 ? (provOnMs - provOffMs) / provOffMs * 100.0 : 0.0;
    if (rep >= 2 && provOverheadPct < 2.0) break;
  }
  std::printf(
      "decisions: %zu  off: %.1f ms  on: %.1f ms  overhead: %+.2f%%\n",
      walDecisions, provOffMs, provOnMs, provOverheadPct);
  bench::result("{\"bench\":\"provenance_overhead\",\"decisions\":" +
                std::to_string(walDecisions) + ",\"base_ms\":" +
                std::to_string(provOffMs) + ",\"provenance_ms\":" +
                std::to_string(provOnMs) + ",\"overhead_pct\":" +
                std::to_string(provOverheadPct) + "}");

  bench::dumpMetrics();
  return misattributed == 0 ? 0 : 1;
}
