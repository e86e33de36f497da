// Figure 13: "Response time when varying the size of the hashes database".
//
// Loads e-books into the tracker in steps, and at each database size pastes
// a 500-character excerpt from a loaded book into a fresh document,
// measuring the 95th-percentile disclosure-decision time. The paper's
// claim to reproduce: response time grows SUB-LINEARLY with the number of
// distinct hashes (hash-indexed candidate discovery), staying bounded.

#include <string>

#include "bench_util.h"
#include "core/decision_engine.h"
#include "sec/sensitive.h"
#include "corpus/text_generator.h"
#include "corpus/revision_model.h"
#include "util/stats.h"
#include "util/stopwatch.h"

int main() {
  using namespace bf;
  bench::printHeader("Figure 13", "p95 response time vs hash-database size");

  // Paper: 1M..10M hashes (90 MB of text). Quick: 100k..1M.
  const std::size_t stepHashes = bench::paperScale() ? 1'000'000 : 100'000;
  const std::size_t steps = 10;
  const std::size_t probes = 30;
  // The x axis counts distinct paragraph hashes, the granularity a paste
  // probe is checked against.
  constexpr flow::SegmentKind kPar = flow::SegmentKind::kParagraph;

  util::LogicalClock clock;
  flow::FlowTracker tracker(flow::TrackerConfig{}, &clock);
  tdm::TdmPolicy policy(&clock);
  core::BrowserFlowConfig config;
  core::DecisionEngine engine(config, &tracker, &policy);

  util::Rng rng(1313);
  corpus::TextGenerator gen(&rng);
  corpus::RevisionModel model(&gen, &rng);

  std::vector<std::string> excerpts;  // 500-char paste sources
  std::size_t bookIndex = 0;

  std::vector<std::pair<double, double>> series;
  for (std::size_t step = 1; step <= steps; ++step) {
    const std::size_t target = step * stepHashes;
    // Grow the database to the target by loading more books.
    while (tracker.hashDb().distinctHashCount(kPar) < target) {
      corpus::VersionedDoc book =
          model.createDocument("book-" + std::to_string(bookIndex++), 200);
      tracker.observeDocument(book.id, "https://books.corp", book.render());
      // Collect ~500-character paragraphs as paste sources (the paper
      // pastes "a 500-character long paragraph from an existing book").
      if (excerpts.size() < 400) {
        for (const auto& para : book.paragraphs) {
          const std::string text = sec::declassifyForTest(para.render());
          if (text.size() >= 450 && text.size() <= 560) {
            excerpts.push_back(text);
            if (excerpts.size() >= 400) break;
          }
        }
      }
    }

    // Paste probes: a 500-char excerpt into a new empty document.
    std::vector<double> timesMs;
    std::size_t missedSources = 0;
    for (std::size_t i = 0; i < probes; ++i) {
      const std::string& excerpt = excerpts[(step * probes + i) %
                                            excerpts.size()];
      const std::string segment =
          "probe-" + std::to_string(step) + "-" + std::to_string(i) + "#p0";
      core::DecisionRequest req;
      req.segmentName = segment;
      req.documentName = "probe-doc";
      req.serviceId = "https://docs.google.com";
      req.text = excerpt;
      util::Stopwatch watch;
      const core::Decision d = engine.decide(req);
      timesMs.push_back(watch.elapsedMillis());
      // A paragraph made mostly of popular passages can have its hashes
      // owned by older paragraphs, leaving the true source undetected —
      // an inherent (and rare) authoritative-fingerprint miss.
      if (d.hits.empty()) ++missedSources;
      tracker.removeSegmentByName(segment);  // keep probes out of the DB
    }
    const double p95 = util::percentile(timesMs, 95);
    series.emplace_back(static_cast<double>(
                            tracker.hashDb().distinctHashCount(kPar)) / 1e6,
                        p95);
    std::printf("hashes: %8.2fM   p95: %8.3f ms   median: %8.3f ms   "
                "source found: %zu/%zu\n",
                series.back().first, p95, util::percentile(timesMs, 50),
                probes - missedSources, probes);
    bench::result(
        "{\"bench\":\"fig13\",\"hashes_millions\":" +
        std::to_string(series.back().first) +
        ",\"p95_ms\":" + std::to_string(p95) +
        ",\"median_ms\":" + std::to_string(util::percentile(timesMs, 50)) +
        "}");
  }

  bench::printSeries("p95-response-time", series,
                     "distinct hashes (millions)", "response time (ms)");

  // Sub-linearity check: 10x the hashes must cost far less than 10x time.
  const double first = series.front().second;
  const double last = series.back().second;
  std::printf("\np95 at %zux database size: %.2fx the initial p95 "
              "(sub-linear if << 10x)\n",
              steps, last / (first > 0 ? first : 1e-9));
  bench::result("{\"bench\":\"fig13\",\"p95_growth_at_10x\":" +
                std::to_string(last / (first > 0 ? first : 1e-9)) + "}");
  bench::dumpMetrics();
  return 0;
}
