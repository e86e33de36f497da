// bf::obs — process-wide observability: metrics registry.
//
// The paper's evaluation (S6, Figs. 12/13) is entirely about the latency
// and scalability of the disclosure pipeline, so the pipeline must be able
// to account for itself without ad-hoc per-component counters. This module
// provides the three Prometheus-style metric kinds:
//
//  - Counter:   monotonically increasing, lock-free relaxed atomic adds;
//  - Gauge:     a settable level (store sizes, queue depths);
//  - Histogram: fixed cumulative buckets with atomic per-bucket counts,
//               plus sum/min/max, for latency distributions. Quantiles are
//               estimated by linear interpolation inside the bucket that
//               contains the requested rank.
//
// Metrics live in a MetricsRegistry; `registry()` is the process-wide
// default instance every component reports to. Registration (name lookup)
// takes a mutex, so call sites resolve their metrics once and keep the
// returned reference — increments on the hot path are a single relaxed
// atomic add. References stay valid for the registry's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bf::obs {

namespace detail {
/// Atomic add for doubles without C++20 atomic-float fetch_add (keeps the
/// code portable across libstdc++ versions).
inline void atomicAdd(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}
inline void atomicMin(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}
inline void atomicMax(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}
}  // namespace detail

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Copyable point-in-time view of a histogram, with the derived statistics
/// benches and tests need. `bucketCounts` holds one count per finite upper
/// bound in `bounds` plus a final overflow (+Inf) bucket.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucketCounts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// p-th percentile (p in [0,100]), estimated by linear interpolation
  /// within the containing bucket. Values in the overflow bucket report
  /// the observed maximum. Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double p) const noexcept;
};

class Histogram {
 public:
  /// `upperBounds` must be strictly increasing; an implicit +Inf bucket is
  /// appended.
  explicit Histogram(std::vector<double> upperBounds);

  /// Exponential bucket ladder from 0.5us to 2.5s, suitable for the
  /// millisecond-denominated latencies the pipeline records.
  [[nodiscard]] static std::vector<double> defaultLatencyBucketsMs();

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] double percentile(double p) const noexcept {
    return data().percentile(p);
  }

  /// Consistent-enough copy for reporting (individual loads are relaxed;
  /// observers racing with writers may see a snapshot mid-update, which is
  /// fine for monitoring).
  [[nodiscard]] HistogramData data() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric in a snapshot.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counterValue = 0;  ///< kCounter
  double gaugeValue = 0.0;         ///< kGauge
  HistogramData histogram;         ///< kHistogram
};

/// Point-in-time capture of a whole registry, ordered by metric name.
/// `diff` supports the bench/test pattern "what did this phase add?".
class MetricsSnapshot {
 public:
  std::vector<MetricValue> metrics;

  [[nodiscard]] const MetricValue* find(std::string_view name) const noexcept;
  /// Convenience: counter value by name, 0 if absent.
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const noexcept;
  /// Convenience: gauge level by name, 0.0 if absent.
  [[nodiscard]] double gaugeValue(std::string_view name) const noexcept;

  /// Returns this snapshot minus `earlier`: counter values and histogram
  /// bucket counts/count/sum are subtracted per name; gauges keep their
  /// current level. A diffed histogram's min/max are the later snapshot's
  /// when the phase moved them, else the edges of the phase's lowest and
  /// highest non-empty buckets. Metrics absent from `earlier` pass through
  /// unchanged. `earlier` must be a snapshot of the same registry taken
  /// before this one.
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& earlier) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get by name. The kind must match any previous registration
  /// of the same name. `help` is kept from the first registration.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// `upperBounds` is used only when the histogram does not exist yet;
  /// empty means defaultLatencyBucketsMs().
  Histogram& histogram(std::string_view name, std::string_view help = {},
                       std::vector<double> upperBounds = {});

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entryFor(std::string_view name, std::string_view help,
                  MetricKind kind) BF_REQUIRES(mutex_);

  mutable util::Mutex mutex_{util::kRankMetrics, "MetricsRegistry.mutex_"};
  std::map<std::string, Entry, std::less<>> metrics_ BF_GUARDED_BY(mutex_);
};

/// The process-wide registry every bf component reports to.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace bf::obs
