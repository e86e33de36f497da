// bf::obs exposition: golden Prometheus text for a fixed registry, and the
// flight recorder's JSON records.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/json_text.h"

namespace bf::obs {
namespace {

/// Small registry with one metric of each kind and known values.
MetricsSnapshot fixtureSnapshot() {
  MetricsRegistry reg;
  reg.counter("bf_test_requests_total", "Requests handled").inc(3);
  reg.gauge("bf_test_queue_depth", "Queue depth").set(2.5);
  Histogram& h = reg.histogram("bf_test_latency_ms", "Latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  return reg.snapshot();
}

TEST(Export, PrometheusTextGolden) {
  const std::string expected =
      "# HELP bf_test_latency_ms Latency\n"
      "# TYPE bf_test_latency_ms histogram\n"
      "bf_test_latency_ms_bucket{le=\"1\"} 1\n"
      "bf_test_latency_ms_bucket{le=\"2\"} 2\n"
      "bf_test_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "bf_test_latency_ms_sum 11\n"
      "bf_test_latency_ms_count 3\n"
      "# HELP bf_test_queue_depth Queue depth\n"
      "# TYPE bf_test_queue_depth gauge\n"
      "bf_test_queue_depth 2.5\n"
      "# HELP bf_test_requests_total Requests handled\n"
      "# TYPE bf_test_requests_total counter\n"
      "bf_test_requests_total 3\n";
  EXPECT_EQ(toPrometheusText(fixtureSnapshot()), expected);
}

TEST(Export, JsonStringFieldsScanBack) {
  // Round-trip through the repo's JSON field scanner: every string field a
  // decision record writes must scan back out, unescaped, in order.
  DecisionTrace t;
  t.ingress = "plugin.paragraph";
  t.segmentName = "doc#p\"1\"";
  t.documentName = "C:\\docs\nnotes";
  t.serviceId = "https://itool.corp";
  t.action = "warn";
  t.contentPreview = "We regret…decision (64 chars)";
  const auto fields = util::scanJsonStringFields(toJson(t));
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(fields.size());
  for (const auto& f : fields) pairs.emplace_back(f.key, f.value);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"ingress", t.ingress},         {"segment", t.segmentName},
      {"document", t.documentName},   {"service", t.serviceId},
      {"action", t.action},           {"content_preview", t.contentPreview},
  };
  EXPECT_EQ(pairs, expected);
}

TEST(Export, HelpIsOptional) {
  MetricsRegistry reg;
  reg.counter("bf_bare_total").inc(1);
  const std::string text = toPrometheusText(reg.snapshot());
  EXPECT_EQ(text,
            "# TYPE bf_bare_total counter\n"
            "bf_bare_total 1\n");
}

TEST(Export, RegistryMetricsAppearInProcessWideExposition) {
  // The wired subsystems register their metrics on first use; touching the
  // process-wide registry here must yield a parseable exposition containing
  // them (smoke check that exposition and registry stay wired together).
  registry().counter("bf_export_smoke_total", "Smoke").inc();
  const std::string text = toPrometheusText(registry().snapshot());
  EXPECT_NE(text.find("# TYPE bf_export_smoke_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("bf_export_smoke_total 1"), std::string::npos);
}

TEST(Export, EscapeLabelValueGolden) {
  EXPECT_EQ(escapeLabelValue("plain"), "plain");
  EXPECT_EQ(escapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escapeLabelValue("quo\"te"), "quo\\\"te");
  EXPECT_EQ(escapeLabelValue("new\nline"), "new\\nline");
  EXPECT_EQ(escapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Export, EscapeHelpTextGolden) {
  // HELP lines escape backslash and newline but NOT quotes (Prometheus
  // exposition format: quotes are only special inside label values).
  EXPECT_EQ(escapeHelpText("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escapeHelpText("quo\"te"), "quo\"te");
  EXPECT_EQ(escapeHelpText("new\nline"), "new\\nline");
}

TEST(Export, HelpWithNewlineAndBackslashIsEscapedInExposition) {
  MetricsSnapshot snap;
  MetricValue m;
  m.name = "bf_esc_total";
  m.help = "first line\nC:\\path";
  m.kind = MetricKind::kCounter;
  m.counterValue = 1;
  snap.metrics.push_back(std::move(m));
  EXPECT_EQ(toPrometheusText(snap),
            "# HELP bf_esc_total first line\\nC:\\\\path\n"
            "# TYPE bf_esc_total counter\n"
            "bf_esc_total 1\n");
}

TEST(Export, EmptyBoundsHistogramStillEmitsInfBucket) {
  // A histogram with no finite buckets must still expose the mandatory
  // +Inf bucket (every observation is an overflow).
  MetricsSnapshot snap;
  MetricValue m;
  m.name = "bf_unbounded_ms";
  m.kind = MetricKind::kHistogram;
  m.histogram.bounds = {};
  m.histogram.bucketCounts = {5};  // overflow slot only
  m.histogram.count = 5;
  m.histogram.sum = 50.0;
  snap.metrics.push_back(std::move(m));
  EXPECT_EQ(toPrometheusText(snap),
            "# TYPE bf_unbounded_ms histogram\n"
            "bf_unbounded_ms_bucket{le=\"+Inf\"} 5\n"
            "bf_unbounded_ms_sum 50\n"
            "bf_unbounded_ms_count 5\n");
}

TEST(Export, InfBucketClampsUpToCountOnRacySnapshot) {
  // Relaxed per-bucket adds can lag the count add in a concurrent
  // snapshot; the +Inf line must never report less than _count, or
  // Prometheus clients reject the family as non-monotonic.
  MetricsSnapshot snap;
  MetricValue m;
  m.name = "bf_racy_ms";
  m.kind = MetricKind::kHistogram;
  m.histogram.bounds = {1.0};
  m.histogram.bucketCounts = {1, 0};  // bucket adds not yet visible
  m.histogram.count = 3;
  m.histogram.sum = 3.0;
  snap.metrics.push_back(std::move(m));
  const std::string text = toPrometheusText(snap);
  EXPECT_NE(text.find("bf_racy_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("bf_racy_ms_count 3\n"), std::string::npos);
}

TEST(Export, MetricOrderingIsStableRegardlessOfRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("bf_zzz_total").inc();
  reg.counter("bf_aaa_total").inc();
  reg.counter("bf_mmm_total").inc();
  const std::string text = toPrometheusText(reg.snapshot());
  const std::size_t a = text.find("bf_aaa_total");
  const std::size_t mPos = text.find("bf_mmm_total");
  const std::size_t z = text.find("bf_zzz_total");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(mPos, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, mPos);
  EXPECT_LT(mPos, z);
  // Re-snapshotting yields byte-identical output (stable ordering).
  EXPECT_EQ(toPrometheusText(reg.snapshot()), text);
}

TEST(Export, DecisionTraceJsonCarriesFullCausalRecord) {
  DecisionTrace t;
  t.decisionId = 9;
  t.traceId = 1234;
  t.sampled = true;
  t.ingress = "plugin.paragraph";
  t.segmentName = "doc#p1";
  t.documentName = "doc";
  t.serviceId = "https://itool.corp";
  t.action = "block";
  t.violation = true;
  t.bytesScanned = 64;
  t.stages.nanos[static_cast<int>(Stage::kFingerprint)] = 1500;
  t.totalMs = 0.25;
  t.hits.push_back({"hr/interview.txt", 0.82, 0.3, 11});
  t.violatingTags = {"ti"};
  t.labelsConsulted = {"segment:ti", "privilege:public"};
  t.contentPreview = "We regretâ¦decision (64 chars)";
  const std::string json = toJson(t);
  EXPECT_NE(json.find("\"decision_id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"ingress\":\"plugin.paragraph\""), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"block\""), std::string::npos);
  EXPECT_NE(json.find("\"violation\":true"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint_ns\":1500"), std::string::npos);
  EXPECT_NE(json.find("{\"source\":\"hr/interview.txt\",\"score\":0.82,"
                      "\"threshold\":0.3,\"overlap\":11}"),
            std::string::npos);
  EXPECT_NE(json.find("\"violating_tags\":[\"ti\"]"), std::string::npos);
  EXPECT_NE(json.find("\"durability_degraded\":false"), std::string::npos);
  // The preview field carries ONLY the redacted form (sec::redact output).
  EXPECT_NE(
      json.find("\"content_preview\":\"We regretâ¦"
                "decision (64 chars)\""),
      std::string::npos);
}

TEST(Export, DecisionTraceJsonMarksDurabilityDegradedWindow) {
  DecisionTrace t;
  t.decisionId = 10;
  t.action = "allow";
  t.durabilityDegraded = true;
  const std::string json = toJson(t);
  EXPECT_NE(json.find("\"durability_degraded\":true"), std::string::npos);
  // Durability is the only degradation a record carries: every verdict ran
  // the full pipeline.
  EXPECT_EQ(json.find("\"degraded\""), std::string::npos);
}

TEST(Export, WalHealthMetricsGolden) {
  // The durability dashboard's two load-bearing series (DESIGN.md §13):
  // the health gauge (0 healthy / 1 degraded / 2 recovering) and the
  // cumulative records-lost counter. Pin their exposition shape.
  MetricsRegistry reg;
  reg.gauge("bf_wal_health",
            "Durability health (0 healthy, 1 degraded, 2 recovering)")
      .set(1.0);
  reg.counter("bf_wal_records_lost_total",
              "WAL records dropped while storage was failing")
      .inc(7);
  const std::string expected =
      "# HELP bf_wal_health Durability health (0 healthy, 1 degraded, 2 "
      "recovering)\n"
      "# TYPE bf_wal_health gauge\n"
      "bf_wal_health 1\n"
      "# HELP bf_wal_records_lost_total WAL records dropped while storage "
      "was failing\n"
      "# TYPE bf_wal_records_lost_total counter\n"
      "bf_wal_records_lost_total 7\n";
  EXPECT_EQ(toPrometheusText(reg.snapshot()), expected);
}

TEST(Export, WalHealthSeriesAppearInProcessExposition) {
  // The real series registered by flow/wal.cpp must show up in the
  // process-wide exposition once a WAL exists. Registering here is
  // idempotent with wal.cpp's registration (create-or-get by name).
  registry().gauge("bf_wal_health",
                   "Durability health (0 healthy, 1 degraded, 2 recovering)");
  registry().counter("bf_wal_records_lost_total",
                     "WAL records dropped while storage was failing");
  const std::string text = toPrometheusText(registry().snapshot());
  EXPECT_NE(text.find("bf_wal_health "), std::string::npos);
  EXPECT_NE(text.find("bf_wal_records_lost_total "), std::string::npos);
}

TEST(Export, FlightRecorderJsonHasSchemaAndDecisions) {
  FlightRecorder recorder(4);
  DecisionTrace t;
  t.traceId = 1;
  t.sampled = true;
  t.ingress = "test";
  recorder.record(std::move(t));
  const std::string json = toJson(recorder);
  EXPECT_EQ(json.rfind("{\"schema\":\"bf-flight-v1\",\"decisions\":[", 0), 0u)
      << json;
  EXPECT_NE(json.find("\"ingress\":\"test\""), std::string::npos);
}

}  // namespace
}  // namespace bf::obs
