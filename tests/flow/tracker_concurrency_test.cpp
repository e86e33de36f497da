// Concurrency tests for the FlowTracker's internal synchronisation.
//
// The tracker keeps one copy of its stores behind one ranked mutex that
// every query and mutation holds (DESIGN.md §10). These tests are the
// regression suite for that contract — concurrent observe/query/remove
// coherence and no torn reads — and run under the tsan preset.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "corpus/text_generator.h"
#include "flow/tracker.h"
#include "util/clock.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

class TrackerConcurrencyTest : public ::testing::Test {
 protected:
  TrackerConcurrencyTest() : tracker_(TrackerConfig{}, &clock_) {}

  util::LogicalClock clock_;
  FlowTracker tracker_;
};

TEST_F(TrackerConcurrencyTest, ConcurrentObserversKeepAttributionIntact) {
  // Seed a sensitive corpus, then let writer threads observe fresh edits
  // while reader threads run disclosure queries against the same stores.
  util::Rng seedRng(5);
  corpus::TextGenerator seedGen(&seedRng);
  std::vector<std::string> secrets;
  for (int i = 0; i < 16; ++i) {
    secrets.push_back(seedGen.paragraph(6, 8));
    tracker_.observeSegment(SegmentKind::kParagraph,
                            "secret" + std::to_string(i) + "#p0",
                            "secret" + std::to_string(i), "internal",
                            secrets.back());
  }

  constexpr int kWriters = 3;
  constexpr int kEditsPerWriter = 120;
  std::atomic<bool> stop{false};
  std::atomic<int> queriesRun{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& secret = secrets[static_cast<std::size_t>(r) * 7 %
                                     secrets.size()];
        const auto hits = tracker_.checkText(secret, "probe");
        EXPECT_FALSE(hits.empty());
        queriesRun.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      util::Rng rng(static_cast<std::uint64_t>(w) * 31 + 1);
      corpus::TextGenerator gen(&rng);
      for (int i = 0; i < kEditsPerWriter; ++i) {
        std::string writer = "w";
        writer += std::to_string(w);
        const std::string name =
            writer + "/d" + std::to_string(i % 10) + "#p0";
        const SegmentId id = tracker_.observeSegment(
            SegmentKind::kParagraph, name, writer, "ext",
            i % 3 == 0 ? secrets[static_cast<std::size_t>(i) % secrets.size()]
                       : gen.paragraph(4, 6));
        // Exercise the cached query path concurrently with other writers.
        (void)tracker_.sourcesForSegment(id);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(queriesRun.load(), 0);
  // Post-stress coherence: every secret still attributes to its source.
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    const auto hits = tracker_.checkText(secrets[i], "probe");
    ASSERT_FALSE(hits.empty()) << "secret " << i << " lost";
    EXPECT_EQ(hits[0].sourceName, "secret" + std::to_string(i) + "#p0");
  }
}

TEST_F(TrackerConcurrencyTest, RemovalsRaceQueriesWithoutCorruption) {
  util::Rng seedRng(9);
  corpus::TextGenerator seedGen(&seedRng);
  const std::string keeper = seedGen.paragraph(6, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "keeper#p0", "keeper",
                          "internal", keeper);
  std::vector<std::string> doomed;
  for (int i = 0; i < 64; ++i) {
    doomed.push_back("doomed" + std::to_string(i) + "#p0");
    tracker_.observeSegment(SegmentKind::kParagraph, doomed.back(),
                            "doomed" + std::to_string(i), "internal",
                            seedGen.paragraph(4, 6));
  }

  std::thread remover([&] {
    for (const auto& name : doomed) tracker_.removeSegmentByName(name);
  });
  std::thread querier([&] {
    for (int i = 0; i < 200; ++i) {
      const auto hits = tracker_.checkText(keeper, "probe");
      ASSERT_FALSE(hits.empty());
      EXPECT_EQ(hits[0].sourceName, "keeper#p0");
    }
  });
  remover.join();
  querier.join();

  // All doomed segments are gone; the keeper attribution survived.
  for (const auto& name : doomed) {
    EXPECT_EQ(tracker_.segmentByName(name), nullptr);
  }
  EXPECT_NE(tracker_.segmentByName("keeper#p0"), nullptr);
}

TEST_F(TrackerConcurrencyTest, DocumentObserversRaceReadersCoherently) {
  // observeDocument's batched path (fingerprints outside the lock, one
  // locked apply) racing readers: queries must never see a half-applied
  // document, and every document must land intact.
  util::Rng seedRng(11);
  corpus::TextGenerator seedGen(&seedRng);
  const std::string secret = seedGen.paragraph(7, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "secret#p0", "secret",
                          "internal", secret);
  const text::Fingerprint secretFp = tracker_.fingerprintOf(secret);

  constexpr int kWriters = 2;
  constexpr int kDocsPerWriter = 12;
  constexpr int kQueriesPerReader = 150;

  // Readers run a BOUNDED number of queries rather than spinning until the
  // writers finish: a precomputed-fingerprint query spends its whole
  // iteration inside the tracker mutex, so an unbounded reader stream
  // could starve the writers' acquisitions (pathological on one core).
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        // Shared-mode query with a precomputed fingerprint: pure read.
        const auto hits = tracker_.disclosedSources(
            secretFp, SegmentKind::kParagraph, kInvalidSegment, "probe");
        ASSERT_FALSE(hits.empty());
        EXPECT_EQ(hits[0].sourceName, "secret#p0");
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      util::Rng rng(static_cast<std::uint64_t>(w) * 97 + 13);
      corpus::TextGenerator gen(&rng);
      for (int d = 0; d < kDocsPerWriter; ++d) {
        std::string doc = secret;  // every document embeds the secret...
        for (int p = 0; p < 8; ++p) {  // ...plus fresh paragraphs
          doc += "\n\n";
          doc += gen.paragraph(3, 6);
        }
        const std::string writerId = std::to_string(w);
        const std::string name = "w" + writerId + "/doc" + std::to_string(d);
        const auto obs = tracker_.observeDocument(name, "ext", doc);
        EXPECT_EQ(obs.paragraphs.size(), 9u);
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();

  // Every document landed whole: document segment plus all 9 paragraphs.
  for (int w = 0; w < kWriters; ++w) {
    for (int d = 0; d < kDocsPerWriter; ++d) {
      const std::string writerId = std::to_string(w);
      const std::string name = "w" + writerId + "/doc" + std::to_string(d);
      ASSERT_NE(tracker_.segmentByName(name), nullptr) << name;
      for (int p = 0; p < 9; ++p) {
        EXPECT_NE(
            tracker_.segmentByName(name + "#p" + std::to_string(p)),
            nullptr)
            << name << "#p" << p;
      }
    }
  }
  // The embedded secret still attributes to the original source (it is the
  // oldest observer of those hashes).
  const auto hits = tracker_.checkText(secret, "probe");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sourceName, "secret#p0");
}

TEST_F(TrackerConcurrencyTest, SourcesForSegmentReturnsStableCopies) {
  util::Rng rng(3);
  corpus::TextGenerator gen(&rng);
  const std::string secret = gen.paragraph(6, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "src#p0", "src",
                          "internal", secret);
  const SegmentId copy = tracker_.observeSegment(
      SegmentKind::kParagraph, "copy#p0", "copy", "ext", secret);

  // The returned vector is a copy: invalidating the cache entry (new
  // observation of the same segment) must not mutate what we already hold.
  const std::vector<DisclosureHit> before = tracker_.sourcesForSegment(copy);
  ASSERT_FALSE(before.empty());
  tracker_.observeSegment(SegmentKind::kParagraph, "copy#p0", "copy", "ext",
                          gen.paragraph(4, 6));
  EXPECT_FALSE(before.empty());
  EXPECT_EQ(before[0].sourceName, "src#p0");
}

TEST_F(TrackerConcurrencyTest, CheckTextRacesChurnWithoutTornResults) {
  // The read path under full churn: N readers hammer checkText
  // while writers interleave observeDocument and removeSegment. Every
  // returned hit must correspond to a state that actually existed — a hit
  // can only name the permanent secret or one of the churned documents'
  // paragraphs — and the permanent secret must never drop out (it is the
  // oldest owner of its hashes, so no later document can steal authority).
  util::Rng seedRng(17);
  corpus::TextGenerator seedGen(&seedRng);
  const std::string secret = seedGen.paragraph(7, 8);
  tracker_.observeSegment(SegmentKind::kParagraph, "secret#p0", "secret",
                          "internal", secret);

  constexpr int kReaders = 4;
  constexpr int kChurnRounds = 40;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto hits = tracker_.checkText(secret, "probe");
        // No torn result: the secret is always present, and every hit
        // names a segment some state actually contained.
        ASSERT_FALSE(hits.empty());
        bool sawSecret = false;
        for (const auto& h : hits) {
          ASSERT_GE(h.score, 0.0);
          ASSERT_LE(h.score, 1.0);
          ASSERT_GT(h.sourceFingerprintSize, 0u);
          ASSERT_LE(h.overlap, h.sourceFingerprintSize);
          if (h.sourceName == "secret#p0") sawSecret = true;
          ASSERT_TRUE(h.sourceName == "secret#p0" ||
                      h.sourceName.rfind("churn/", 0) == 0)
              << "hit names a segment that never existed: " << h.sourceName;
        }
        ASSERT_TRUE(sawSecret);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread churn([&] {
    util::Rng rng(23);
    corpus::TextGenerator gen(&rng);
    for (int i = 0; i < kChurnRounds; ++i) {
      // A document embedding the secret plus fresh paragraphs...
      std::string doc = secret;
      for (int p = 0; p < 4; ++p) doc += "\n\n" + gen.paragraph(3, 5);
      const std::string name = "churn/doc" + std::to_string(i % 5);
      const auto obs = tracker_.observeDocument(name, "ext", doc);
      ASSERT_EQ(obs.paragraphs.size(), 5u);
      // ...then tear half of it down again while readers keep querying.
      if (i % 2 == 1) {
        for (int p = 0; p < 5; ++p) {
          tracker_.removeSegmentByName(name + "#p" + std::to_string(p));
        }
        tracker_.removeSegmentByName(name);
      }
    }
  });
  churn.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(queries.load(), 0u);
  const auto hits = tracker_.checkText(secret, "probe");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sourceName, "secret#p0");
}

}  // namespace
}  // namespace bf::flow
