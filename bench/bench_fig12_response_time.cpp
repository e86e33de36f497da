// Figure 12: "Distribution of response times for disclosure decisions".
//
// Preloads the e-books corpus into the tracker, then measures the time per
// disclosure decision while a user edits a Google-Docs-style document under
// the paper's three workflows:
//   W1 Creation-with-overlap    — typing a page from an existing e-book
//   W2 Creation-without-overlap — typing fresh text
//   W3 Modification             — editing a modified e-book page back
//                                 towards the original
//
// Expected shape (paper S6.2): a bimodal distribution — most keystrokes are
// answered from the fingerprint cache (fast mode), fingerprint-changing
// keystrokes trigger a real disclosure calculation (slow mode); overlap-
// heavy workflows (W1/W3) sit above the no-overlap workflow (W2).

// Latencies come from the bf_decision_latency_ms histogram in the obs
// registry (what each workflow added, by a snapshot diff around it), so the
// CDF points are histogram quantile estimates rather than raw samples.

#include <string>

#include "bench_util.h"
#include "core/decision_engine.h"
#include "sec/sensitive.h"
#include "corpus/datasets.h"
#include "obs/metrics.h"
#include "text/segmenter.h"

namespace {

using namespace bf;

/// Types `text` into `segment` one keystroke at a time, running the full
/// decision pipeline per keystroke (the paper's trigger model).
void typeText(core::DecisionEngine& engine, const std::string& segment,
              const std::string& doc, const std::string& text) {
  std::string typed;
  typed.reserve(text.size());
  for (char c : text) {
    typed += c;
    core::DecisionRequest req;
    req.segmentName = segment;
    req.documentName = doc;
    req.serviceId = "https://docs.google.com";
    req.text = typed;
    engine.decide(req);
  }
}

void printCdf(const char* name, const obs::HistogramData& latency) {
  std::vector<std::pair<double, double>> series;
  for (double p : {1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 85.0, 90.0, 95.0, 99.0,
                   99.9}) {
    series.emplace_back(latency.percentile(p), p / 100.0);
  }
  bench::printSeries(name, series, "response time (ms)",
                     "fraction of samples");
  // The paper's budget: 85% of decisions under 30 ms, 99% under 200 ms.
  std::printf("samples: %llu, p85: %.4f ms (paper: <30), p99: %.4f ms "
              "(paper: <200)\n",
              static_cast<unsigned long long>(latency.count),
              latency.percentile(85.0), latency.percentile(99.0));
}

}  // namespace

int main() {
  bench::printHeader("Figure 12", "response-time distribution per workflow");

  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  tdm::TdmPolicy policy(&clock);
  core::BrowserFlowConfig config;
  core::DecisionEngine engine(config, &tracker, &policy);

  // Preload the e-books corpus (paper: 90 MB / 10 M distinct hashes).
  const auto ebookCfg = bench::paperScale()
                            ? corpus::EbooksConfig::paperScale()
                            : corpus::EbooksConfig::quickScale();
  const auto ebooks = corpus::buildEbooks(ebookCfg);
  for (const auto& book : ebooks.books) {
    tracker.observeDocument(book.id, "https://books.corp", book.render());
  }
  std::printf("preloaded %zu books, %.1f MB, %zu distinct paragraph "
              "hashes\n",
              ebooks.books.size(),
              static_cast<double>(ebooks.totalBytes) / (1024.0 * 1024.0),
              tracker.hashDb().distinctHashCount(
                  flow::SegmentKind::kParagraph));

  // A "page": a few consecutive paragraphs of a book.
  auto pageOf = [](const corpus::VersionedDoc& book, std::size_t start,
                   std::size_t count) {
    std::string out;
    for (std::size_t i = start; i < start + count && i < book.paragraphs.size();
         ++i) {
      if (!out.empty()) out += "\n\n";
      out += sec::declassifyForTest(book.paragraphs[i].render());
    }
    return out;
  };
  const std::size_t pageParagraphs = 3;

  // W1: creation with overlap — type a page from book 0.
  obs::MetricsSnapshot before = obs::registry().snapshot();
  {
    const std::string page = pageOf(ebooks.books[0], 10, pageParagraphs);
    std::size_t p = 0;
    for (const auto& para : text::segmentParagraphs(page)) {
      typeText(engine, "w1doc#p" + std::to_string(p++), "w1doc", para.text);
    }
  }
  const obs::HistogramData w1 =
      bench::histogramSince(before, "bf_decision_latency_ms");

  // W2: creation without overlap — type fresh text of the same length.
  before = obs::registry().snapshot();
  {
    util::Rng rng(4242);
    corpus::TextGenerator gen(&rng);
    for (std::size_t p = 0; p < pageParagraphs; ++p) {
      typeText(engine, "w2doc#p" + std::to_string(p), "w2doc",
               gen.paragraph(5, 7));
    }
  }
  const obs::HistogramData w2 =
      bench::histogramSince(before, "bf_decision_latency_ms");

  // W3: modification — a previously-modified page is edited back to match
  // the original (growing-prefix morph, one keystroke per step).
  before = obs::registry().snapshot();
  {
    util::Rng rng(77);
    corpus::TextGenerator gen(&rng);
    corpus::RevisionModel model(&gen, &rng);
    corpus::VersionedDoc modified = ebooks.books[1];
    model.evolve(modified, corpus::volatileProfile(), 150);
    // Morph a paragraph that actually changed between the versions.
    std::size_t paraIdx = 0;
    while (paraIdx + 1 < modified.paragraphs.size() &&
           (paraIdx >= ebooks.books[1].paragraphs.size() ||
            modified.paragraphs[paraIdx].render() ==
                ebooks.books[1].paragraphs[paraIdx].render())) {
      ++paraIdx;
    }
    const std::string original = pageOf(ebooks.books[1], paraIdx, 1);
    const std::string edited = pageOf(modified, paraIdx, 1);
    for (std::size_t k = 1; k <= original.size(); k += 1) {
      const std::string text =
          original.substr(0, k) +
          (k < edited.size() ? edited.substr(k) : std::string{});
      core::DecisionRequest req;
      req.segmentName = "w3doc#p0";
      req.documentName = "w3doc";
      req.serviceId = "https://docs.google.com";
      req.text = text;
      engine.decide(req);
    }
  }
  const obs::HistogramData w3 =
      bench::histogramSince(before, "bf_decision_latency_ms");

  printCdf("W1 Creation-with-overlap", w1);
  printCdf("W2 Creation-without-overlap", w2);
  printCdf("W3 Modification", w3);

  std::printf(
      "\nexpected shape (paper Fig. 12): bimodal — cache-served keystrokes "
      "fast, recomputations slower; W1/W3 (overlapping text) slower than "
      "W2. Absolute numbers differ from the paper's browser setup.\n");
  bench::dumpMetrics();
  return 0;
}
