// Microbenchmarks (google-benchmark): the primitives behind every
// disclosure decision — normalization, n-gram hashing, winnowing, HashDb
// lookups, Algorithm 1's candidate scoring and full queries.

#include <benchmark/benchmark.h>

#include "corpus/datasets.h"
#include "corpus/text_generator.h"
#include "flow/snapshot.h"
#include "flow/tracker.h"
#include "text/aho_corasick.h"
#include "text/fingerprint_kernel.h"
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

void BM_FingerprintIntersection(benchmark::State& state) {
  const text::FingerprintConfig config;
  const auto a = text::fingerprintText(makeText(1 << 16), config);
  const auto b = text::fingerprintText(makeText(1 << 16), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Fingerprint::intersectionSize(a, b));
  }
}
BENCHMARK(BM_FingerprintIntersection);

void BM_HashDbLookup(benchmark::State& state) {
  flow::HashDb db;
  util::Rng rng(2);
  const std::size_t hashes = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < hashes; ++i) {
    db.recordObservation(rng.next() & 0xffffffff, (i % 512) + 1, i);
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.oldestSegmentWith(probe++ & 0xffffffff));
  }
}
BENCHMARK(BM_HashDbLookup)->Arg(100000)->Arg(1000000);

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
    tracker.observeSegment(flow::SegmentKind::kParagraph,
                           "d" + std::to_string(i) + "#p0",
                           "d" + std::to_string(i), "svc", text);
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

  const std::uint64_t before = tracker.stats().candidatesInspected;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.disclosedSources(
        fp, flow::SegmentKind::kParagraph, flow::kInvalidSegment, "probe"));
  }
  state.counters["candidates"] = benchmark::Counter(
      static_cast<double>(tracker.stats().candidatesInspected - before),
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
    tracker.observeSegment(flow::SegmentKind::kParagraph,
                           "d" + std::to_string(i) + "#p0",
                           "d" + std::to_string(i), "svc",
                           gen.paragraph(5, 8));
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
    tracker.observeSegment(flow::SegmentKind::kParagraph,
                           "d" + std::to_string(i) + "#p0",
                           "d" + std::to_string(i), "svc",
                           gen.paragraph(5, 8));
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
