// Microbenchmarks (google-benchmark): the primitives behind every
// disclosure decision — normalization, n-gram hashing, winnowing, HashDb
// lookups, Algorithm 1's candidate scoring and full queries.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "corpus/datasets.h"
#include "corpus/text_generator.h"
#include "flow/snapshot.h"
#include "flow/tracker.h"
#include "obs/metrics.h"
#include "text/aho_corasick.h"
#include "text/fingerprint_kernel.h"
#include "text/normalizer.h"
#include "text/simd/kernel.h"
#include "text/winnower.h"
#include "util/clock.h"

namespace {

using namespace bf;

std::string makeText(std::size_t bytes) {
  util::Rng rng(1);
  corpus::TextGenerator gen(&rng);
  std::string out;
  while (out.size() < bytes) {
    out += gen.paragraph(5, 8);
    out += "\n\n";
  }
  out.resize(bytes);
  return out;
}

void BM_Normalize(benchmark::State& state) {
  const std::string text = makeText(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::normalize(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Normalize)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FingerprintText(benchmark::State& state) {
  const std::string text = makeText(static_cast<std::size_t>(state.range(0)));
  const text::FingerprintConfig config;  // paper defaults
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::fingerprintText(text, config));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FingerprintText)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FingerprintTextReference(benchmark::State& state) {
  // The staged pipeline (normalize → hashNgrams → winnow) kept as the
  // differential-testing reference — and as the pre-fusion baseline this
  // PR's BENCH_PR4.json compares the fused kernel against.
  const std::string text = makeText(static_cast<std::size_t>(state.range(0)));
  const text::FingerprintConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::fingerprintTextReference(text, config));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FingerprintTextReference)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);

void BM_FingerprintTextFusedWorkspace(benchmark::State& state) {
  // The fused kernel against an explicitly reused workspace: the
  // zero-allocation steady state (fingerprintText's thread-local path adds
  // only the TLS lookup on top of this).
  const std::string text = makeText(static_cast<std::size_t>(state.range(0)));
  const text::FingerprintConfig config;
  text::FingerprintWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::fingerprintTextFused(text, config, ws));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FingerprintTextFusedWorkspace)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);

void BM_FingerprintTextTier(benchmark::State& state) {
  // The fused kernel pinned to one dispatch tier, at the event sizes the
  // end-to-end workloads send (docs_typing ~0.4 KB paragraphs and ~1.9 KB
  // documents, paste_upload ~3.4 KB), at 16 KiB, and at 40 and 96 B: the
  // slices a keystroke's spliced re-fingerprint runs the kernel on (about
  // 35 B on average in docs_typing, where typing mostly appends, and two
  // windows plus the edit in mid-text). These rows
  // re-check the rule that a SIMD tier stays only while it beats scalar by
  // at least 1.5x (DESIGN.md §15).
  const auto tier = static_cast<text::simd::KernelTier>(state.range(0));
  if (!text::simd::setKernelTierOverrideForTest(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  const std::string text = makeText(static_cast<std::size_t>(state.range(1)));
  const text::FingerprintConfig config;
  text::FingerprintWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::fingerprintTextFused(text, config, ws));
  }
  text::simd::restoreAutoKernelTier();
  state.SetLabel(text::simd::kernelTierName(tier));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_FingerprintTextTier)
    ->ArgNames({"tier", "bytes"})
    ->ArgsProduct({{static_cast<int64_t>(text::simd::KernelTier::kScalar),
                    static_cast<int64_t>(text::simd::KernelTier::kAvx512)},
                   {40, 96, 400, 1900, 3400, 16384}});

void BM_Refingerprint(benchmark::State& state) {
  // A keystroke: one letter inserted mid-text, re-fingerprinted by
  // splicing from the previous text's fingerprint (text::refingerprint)
  // on one dispatch tier. Compare with BM_FingerprintTextTier at the same
  // size, the full kernel's cost for the same text.
  const auto tier = static_cast<text::simd::KernelTier>(state.range(0));
  if (!text::simd::setKernelTierOverrideForTest(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  const std::string before = makeText(static_cast<std::size_t>(state.range(1)));
  std::string after = before;
  after.insert(after.size() / 2, 1, 'x');
  const text::FingerprintConfig config;
  text::FingerprintWorkspace ws;
  const text::Fingerprint fp = text::fingerprintTextFused(before, config, ws);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::refingerprint(before, fp, after, config, ws));
  }
  text::simd::restoreAutoKernelTier();
  state.SetLabel(text::simd::kernelTierName(tier));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_Refingerprint)
    ->ArgNames({"tier", "bytes"})
    ->ArgsProduct({{static_cast<int64_t>(text::simd::KernelTier::kScalar),
                    static_cast<int64_t>(text::simd::KernelTier::kAvx512)},
                   {400, 1900}});

void BM_FingerprintIntersection(benchmark::State& state) {
  const text::FingerprintConfig config;
  const auto a = text::fingerprintText(makeText(1 << 16), config);
  const auto b = text::fingerprintText(makeText(1 << 16), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Fingerprint::intersectionSize(a, b));
  }
}
BENCHMARK(BM_FingerprintIntersection);

// The HashDb rows record and look up paragraph-kind associations only, as
// a tracker does for the paragraph units of a decision.
constexpr flow::SegmentKind kPar = flow::SegmentKind::kParagraph;

void BM_HashDbLookup(benchmark::State& state) {
  flow::HashDb db;
  util::Rng rng(2);
  const std::size_t hashes = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < hashes; ++i) {
    db.recordObservation(kPar, static_cast<text::Hash>(rng.next()),
                         (i % 512) + 1, i);
  }
  text::Hash probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.oldestSegmentWith(kPar, probe++));
  }
}
BENCHMARK(BM_HashDbLookup)->Arg(100000)->Arg(1000000);

void BM_HashDbRecordFingerprint(benchmark::State& state) {
  // Records fingerprint-sized batches into a DB preloaded with `range(0)`
  // hashes, either one recordObservation per hash (range(1) == 0) or
  // through the prefetched recordFingerprint batch. With first == 0 the
  // batches re-record stored hashes under a rotating set of segments (the
  // re-observe path). With first == 1 every batch is a new segment id's
  // first record and draws on a shared pool of kPoolHashes, so histories
  // hold hundreds of owners, as common n-grams do in a preload of books;
  // the DB is rebuilt outside the timed region every kFirstRounds batches
  // to keep them at that length.
  // Diagnostic only: the gates are e2ebench's paste_upload events_per_s
  // and docs_typing setup_s.
  constexpr std::size_t kBatchHashes = 700;
  constexpr std::size_t kBatches = 512;
  constexpr std::size_t kPoolHashes = 1024;
  constexpr std::size_t kFirstRounds = 256;
  const std::size_t preload = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const bool first = state.range(2) != 0;
  util::Rng rng(4);
  std::vector<text::Hash> stored(preload);
  for (text::Hash& h : stored) h = static_cast<text::Hash>(rng.next());
  std::vector<text::Hash> shared(kPoolHashes);
  for (text::Hash& h : shared) h = static_cast<text::Hash>(rng.next());
  std::vector<std::vector<text::Hash>> batches(kBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kBatchHashes; ++i) {
      batch.push_back(first ? shared[rng.next() % kPoolHashes]
                            : stored[rng.next() % preload]);
    }
    std::sort(batch.begin(), batch.end());
    // A fingerprint holds each hash once; a new id's batch must too.
    if (first) {
      batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
    }
  }

  std::optional<flow::HashDb> db;  // HashDb owns its table: not movable
  flow::SegmentId segment = 0;
  util::Timestamp ts = 0;
  std::size_t next = 0;
  std::int64_t items = 0;
  const auto record = [&](const std::vector<text::Hash>& batch) {
    if (batched) {
      db->recordFingerprint(kPar, batch, segment, ts);
    } else {
      for (text::Hash h : batch) db->recordObservation(kPar, h, segment, ts);
    }
  };
  // The preload, then (first-record rows) kFirstRounds batches of the
  // shared pool, so every timed round joins histories of hundreds.
  const auto rebuild = [&] {
    db.emplace();
    for (std::size_t i = 0; i < preload; ++i) {
      db->recordObservation(kPar, stored[i], (i % 512) + 1, i);
    }
    segment = 1000;
    ts = preload;
    for (std::size_t i = 0; first && i < kFirstRounds; ++i, ++segment, ++ts) {
      db->recordFingerprint(kPar, batches[i % kBatches], segment, ts);
    }
  };
  rebuild();
  for (auto _ : state) {
    if (first && next % kFirstRounds == 0 && next != 0) {
      state.PauseTiming();
      rebuild();
      state.ResumeTiming();
    }
    const std::vector<text::Hash>& batch = batches[next % kBatches];
    segment = first ? segment + 1 : 1000 + next % kBatches;
    ++next;
    ++ts;
    record(batch);
    items += static_cast<std::int64_t>(batch.size());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_HashDbRecordFingerprint)
    ->ArgNames({"preload", "batched", "first"})
    ->Args({100000, 0, 0})
    ->Args({100000, 1, 0})
    ->Args({1000000, 0, 0})
    ->Args({1000000, 1, 0})
    ->Args({100000, 0, 1})
    ->Args({100000, 1, 1});

void BM_DisclosureQuery(benchmark::State& state) {
  // Full Algorithm 1 query against a DB of `range(0)` paragraphs, where the
  // probe overlaps one of them.
  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  util::Rng rng(3);
  corpus::TextGenerator gen(&rng);
  std::string probe;
  const std::size_t paragraphs = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < paragraphs; ++i) {
    const std::string text = gen.paragraph(5, 8);
    if (i == paragraphs / 2) probe = text;
    std::string doc = "d";
    doc += std::to_string(i);
    tracker.observeSegment(flow::SegmentKind::kParagraph, doc + "#p0", doc,
                           "svc", text);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.checkText(probe, "probe-doc"));
  }
}
BENCHMARK(BM_DisclosureQuery)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CandidateScoring(benchmark::State& state) {
  // Diagnostic for Algorithm 1's candidate scoring alone: a ~3.4 KB target
  // (consecutive paragraphs of one book, then fresh prose) against six
  // quick-scale books — the shape of one multi-KB paste lookup. The target
  // is fingerprinted once, outside the loop, so the series is candidate
  // discovery plus scoring; "candidates" is the sources scored per query.
  corpus::EbooksConfig cfg = corpus::EbooksConfig::quickScale();
  cfg.books = 6;
  const corpus::EbooksDataset ds = corpus::buildEbooks(cfg);
  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  for (const corpus::VersionedDoc& book : ds.books) {
    tracker.observeDocument(book.id, "svc", book.render());
  }
  std::string target;
  const auto& paras = ds.books[2].paragraphs;
  for (std::size_t i = 10; target.size() < 1700 && i < paras.size(); ++i) {
    target += sec::declassifyForTest(paras[i].render()) + " ";
  }
  util::Rng rng(8);
  corpus::TextGenerator gen(&rng);
  while (target.size() < 3400) target += gen.paragraph() + " ";
  const text::Fingerprint fp = tracker.fingerprintOf(target);

  const obs::Counter& candidates =
      obs::registry().counter("bf_tracker_candidates_inspected_total");
  const std::uint64_t before = candidates.value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.disclosedSources(
        fp, flow::SegmentKind::kParagraph, flow::kInvalidSegment, "probe"));
  }
  state.counters["candidates"] = benchmark::Counter(
      static_cast<double>(candidates.value() - before),
      benchmark::Counter::kAvgIterations);
  state.counters["target_hashes"] = static_cast<double>(fp.size());
}
BENCHMARK(BM_CandidateScoring);

void BM_KeystrokeCachedDecision(benchmark::State& state) {
  // The hot path of S6.2: re-querying a segment whose fingerprint did not
  // change.
  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  util::Rng rng(4);
  corpus::TextGenerator gen(&rng);
  const flow::SegmentId id = tracker.observeSegment(
      flow::SegmentKind::kParagraph, "t#p0", "t", "svc", gen.paragraph(8, 8));
  (void)tracker.sourcesForSegment(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.sourcesForSegment(id));
  }
}
BENCHMARK(BM_KeystrokeCachedDecision);

void BM_SnapshotExport(benchmark::State& state) {
  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  util::Rng rng(5);
  corpus::TextGenerator gen(&rng);
  for (int i = 0; i < 200; ++i) {
    std::string doc = "d";
    doc += std::to_string(i);
    tracker.observeSegment(flow::SegmentKind::kParagraph, doc + "#p0", doc,
                           "svc", gen.paragraph(5, 8));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::exportState(tracker));
  }
}
BENCHMARK(BM_SnapshotExport);

void BM_SnapshotImport(benchmark::State& state) {
  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  util::Rng rng(6);
  corpus::TextGenerator gen(&rng);
  for (int i = 0; i < 200; ++i) {
    std::string doc = "d";
    doc += std::to_string(i);
    tracker.observeSegment(flow::SegmentKind::kParagraph, doc + "#p0", doc,
                           "svc", gen.paragraph(5, 8));
  }
  const std::string blob = flow::exportState(tracker);
  for (auto _ : state) {
    util::LogicalClock clock2;
    flow::FlowTracker restored(flow::TrackerConfig{}, &clock2);
    benchmark::DoNotOptimize(flow::importState(restored, blob));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_SnapshotImport);

void BM_SecretScanAhoCorasick(benchmark::State& state) {
  text::AhoCorasick ac;
  util::Rng rng(7);
  corpus::TextGenerator gen(&rng);
  for (std::uint64_t i = 0; i < 500; ++i) {
    ac.addPattern(gen.word() + gen.word() + gen.word(), i);
  }
  ac.build();
  const std::string hay = makeText(1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ac.containsAny(hay));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_SecretScanAhoCorasick);

}  // namespace

BENCHMARK_MAIN();
