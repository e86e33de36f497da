// Ablations for the design choices DESIGN.md calls out:
//  A1  winnowing parameters (n-gram / window length) vs detection accuracy
//  A2  authoritative fingerprints on/off vs false positives on overlapping
//      documents (the paper's Fig. 7 problem)
//  A3  the per-segment decision cache on/off vs keystroke latency

#include <cmath>

#include "bench_util.h"
#include "corpus/datasets.h"
#include "disclosure_eval.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace {

using namespace bf;

// ---- A1 -----------------------------------------------------------------

void ablationWinnowingParams(const corpus::ManualsDataset& manuals) {
  std::printf("\n--- A1: winnowing parameters vs accuracy (manuals, "
              "T_par = 0.5) ---\n");
  std::printf("%8s %8s | %22s %22s\n", "n-gram", "window", "detected/truth",
              "avg fingerprint size");
  struct Param {
    std::size_t ngram, window;
  };
  const Param params[] = {{5, 10},  {8, 16},  {15, 30},
                          {15, 60}, {25, 50}, {40, 80}};
  for (const auto& p : params) {
    flow::TrackerConfig cfg;
    cfg.fingerprint.ngramChars = p.ngram;
    cfg.fingerprint.windowChars = p.window;

    std::size_t detected = 0, truth = 0;
    double fpSizeSum = 0;
    std::size_t fpCount = 0;
    for (const auto& ch : manuals.chapters) {
      for (std::size_t v = 1; v < ch.versions.size(); ++v) {
        const auto eval = bench::evaluateDisclosure(
            ch.versions.front(), ch.versions[v], cfg, 0.5, true);
        detected += eval.detectedByBrowserFlow;
        truth += eval.detectedByGroundTruth;
      }
      for (const auto& para : ch.versions.front().paragraphs) {
        fpSizeSum += static_cast<double>(
            text::fingerprintText(para.render(), cfg.fingerprint).size());
        ++fpCount;
      }
    }
    std::printf("%8zu %8zu | %22.3f %22.1f\n", p.ngram, p.window,
                truth > 0 ? static_cast<double>(detected) /
                                static_cast<double>(truth)
                          : 0.0,
                fpSizeSum / static_cast<double>(fpCount));
  }
  std::printf(
      "(too-small n-grams collide across unrelated text, so under "
      "authoritative tracking older paragraphs claim the hashes and true "
      "sources are under-scored; larger windows thin the fingerprint, "
      "trading recall on partial copies for memory)\n");
}

// ---- A2 -------------------------------------------------------------------

void ablationAuthoritative() {
  std::printf("\n--- A2: authoritative fingerprints vs overlap false "
              "positives ---\n");
  // Fig. 7 setup, scaled up: N originals; each also exists inside a larger
  // "superset" paragraph; every original is then pasted to a new document.
  // Without authoritative fingerprints, each paste blames BOTH copies.
  const std::size_t n = 40;
  for (bool useAuth : {true, false}) {
    util::LogicalClock clock;
    flow::TrackerConfig cfg;
    cfg.useAuthoritative = useAuth;
    flow::FlowTracker tracker(cfg, &clock);
    util::Rng rng(5);
    corpus::TextGenerator gen(&rng);

    std::vector<std::string> originals;
    for (std::size_t i = 0; i < n; ++i) {
      originals.push_back(gen.paragraph(6, 8));
      tracker.observeSegment(flow::SegmentKind::kParagraph,
                             "orig" + std::to_string(i) + "#p0",
                             "orig" + std::to_string(i), "svc", originals[i]);
      tracker.observeSegment(
          flow::SegmentKind::kParagraph, "super" + std::to_string(i) + "#p0",
          "super" + std::to_string(i), "svc",
          originals[i] + " " + gen.paragraph(6, 8));
    }
    std::size_t truePositives = 0, falsePositives = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& hit : tracker.checkText(originals[i], "probe")) {
        if (hit.sourceName == "orig" + std::to_string(i) + "#p0") {
          ++truePositives;
        } else {
          ++falsePositives;
        }
      }
    }
    std::printf("authoritative=%-5s  true positives: %zu/%zu, "
                "false positives: %zu\n",
                useAuth ? "on" : "off", truePositives, n, falsePositives);
  }
  std::printf("(paper S4.3: the authoritative fingerprint confines each "
              "report to the true origin)\n");
}

// ---- A3 ----------------------------------------------------------------------

void ablationCache() {
  std::printf("\n--- A3: decision cache vs keystroke latency ---\n");
  for (bool useCache : {true, false}) {
    util::LogicalClock clock;
    flow::TrackerConfig cfg;
    cfg.enableCache = useCache;
    flow::FlowTracker tracker(cfg, &clock);
    util::Rng rng(6);
    corpus::TextGenerator gen(&rng);

    // A corpus of paragraphs sharing text with what the user types.
    const std::string source = gen.paragraph(8, 10);
    for (int i = 0; i < 50; ++i) {
      tracker.observeSegment(flow::SegmentKind::kParagraph,
                             "doc" + std::to_string(i) + "#p0",
                             "doc" + std::to_string(i), "svc",
                             source + " " + gen.paragraph(4, 6));
    }

    const flow::SegmentId typing = tracker.observeSegment(
        flow::SegmentKind::kParagraph, "typing#p0", "typing", "svc", source);
    std::vector<double> timesUs;
    std::string text = source;
    const obs::MetricsSnapshot before = obs::registry().snapshot();
    for (int k = 0; k < 200; ++k) {
      text += static_cast<char>('a' + (k % 26));
      tracker.observeSegment(flow::SegmentKind::kParagraph, "typing#p0",
                             "typing", "svc", text);
      util::Stopwatch watch;
      (void)tracker.sourcesForSegment(typing);
      timesUs.push_back(watch.elapsedMicros());
    }
    const std::uint64_t cacheHits =
        obs::registry().snapshot().diff(before).counterValue(
            "bf_tracker_cache_hits_total");
    std::printf("cache=%-4s  median: %8.1f us   p95: %8.1f us   "
                "cache hits: %llu/200\n",
                useCache ? "on" : "off", util::percentile(timesUs, 50),
                util::percentile(timesUs, 95),
                static_cast<unsigned long long>(cacheHits));
  }
  std::printf("(paper S6.2: unchanged fingerprints are served from the "
              "previous response)\n");
}

}  // namespace

int main() {
  bench::printHeader("Ablations", "winnowing params / authoritative "
                                  "fingerprints / decision cache");
  const auto manuals = corpus::buildManuals();
  ablationWinnowingParams(manuals);
  ablationAuthoritative();
  ablationCache();
  bench::dumpMetrics();
  return 0;
}
