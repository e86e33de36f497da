#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace bf::obs {

// ---- HistogramData ---------------------------------------------------------

double HistogramData::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank target in [1, count].
  const double targetRank =
      std::max(1.0, p / 100.0 * static_cast<double>(count));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucketCounts.size(); ++i) {
    const std::uint64_t inBucket = bucketCounts[i];
    if (inBucket == 0) continue;
    const std::uint64_t nextCumulative = cumulative + inBucket;
    if (static_cast<double>(nextCumulative) >= targetRank) {
      if (i >= bounds.size()) return max;  // overflow bucket
      const double lower = i == 0 ? std::min(min, bounds[0]) : bounds[i - 1];
      const double upper = bounds[i];
      const double fraction =
          (targetRank - static_cast<double>(cumulative)) /
          static_cast<double>(inBucket);
      return lower + (upper - lower) * fraction;
    }
    cumulative = nextCumulative;
  }
  return max;
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

std::vector<double> Histogram::defaultLatencyBucketsMs() {
  return {0.0005, 0.001, 0.0025, 0.005, 0.01,  0.025, 0.05,
          0.1,    0.25,  0.5,    1.0,   2.5,   5.0,   10.0,
          25.0,   50.0,  100.0,  250.0, 500.0, 1000.0, 2500.0};
}

void Histogram::observe(double v) noexcept {
  // Prometheus bucket semantics: bucket i counts observations <= bounds[i].
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomicAdd(sum_, v);
  detail::atomicMin(min_, v);
  detail::atomicMax(max_, v);
}

HistogramData Histogram::data() const {
  HistogramData out;
  out.bounds = bounds_;
  out.bucketCounts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out.bucketCounts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  if (out.count > 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  return out;
}

// ---- MetricsSnapshot -------------------------------------------------------

const MetricValue* MetricsSnapshot::find(std::string_view name) const noexcept {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counterValue(
    std::string_view name) const noexcept {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kCounter) ? m->counterValue
                                                           : 0;
}

double MetricsSnapshot::gaugeValue(std::string_view name) const noexcept {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kGauge) ? m->gaugeValue : 0.0;
}

namespace {

/// What a histogram recorded between `before` and `now`. The process-wide
/// min and max describe the phase only where the phase moved them; else
/// they fall back to the finite edges of the phase's outermost non-empty
/// buckets, so one phase's percentiles never report another's extremes.
HistogramData histogramDiff(const HistogramData& now,
                            const HistogramData& before) {
  HistogramData d = now;
  d.count = now.count - before.count;
  d.sum = now.sum - before.sum;
  for (std::size_t i = 0; i < now.bucketCounts.size(); ++i) {
    d.bucketCounts[i] = now.bucketCounts[i] - before.bucketCounts[i];
  }
  if (d.count == 0) {
    d.min = d.max = 0.0;
    return d;
  }
  if (before.count == 0 || d.bounds.empty()) return d;
  const auto nonEmpty = [](std::uint64_t n) { return n != 0; };
  if (now.max <= before.max) {
    const auto top = std::find_if(d.bucketCounts.rbegin(),
                                  d.bucketCounts.rend(), nonEmpty);
    const std::size_t i =
        static_cast<std::size_t>(d.bucketCounts.rend() - top) - 1;
    d.max = d.bounds[std::min(i, d.bounds.size() - 1)];
  }
  if (now.min >= before.min) {
    const auto bottom = std::find_if(d.bucketCounts.begin(),
                                     d.bucketCounts.end(), nonEmpty);
    const std::size_t i =
        static_cast<std::size_t>(bottom - d.bucketCounts.begin());
    d.min = d.bounds[i == 0 ? 0 : i - 1];
  }
  return d;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  out.metrics.reserve(metrics.size());
  for (const MetricValue& now : metrics) {
    MetricValue d = now;
    const MetricValue* before = earlier.find(now.name);
    if (before != nullptr && before->kind == now.kind) {
      switch (now.kind) {
        case MetricKind::kCounter:
          d.counterValue = now.counterValue - before->counterValue;
          break;
        case MetricKind::kGauge:
          break;  // gauges are levels, not rates
        case MetricKind::kHistogram:
          if (now.histogram.bounds == before->histogram.bounds) {
            d.histogram = histogramDiff(now.histogram, before->histogram);
          }
          break;
      }
    }
    out.metrics.push_back(std::move(d));
  }
  return out;
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::entryFor(std::string_view name,
                                                  std::string_view help,
                                                  MetricKind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.help = std::string(help);
    entry.kind = kind;
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' registered with a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  util::MutexLock lock(mutex_);
  Entry& e = entryFor(name, help, MetricKind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  util::MutexLock lock(mutex_);
  Entry& e = entryFor(name, help, MetricKind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::vector<double> upperBounds) {
  util::MutexLock lock(mutex_);
  Entry& e = entryFor(name, help, MetricKind::kHistogram);
  if (!e.histogram) {
    if (upperBounds.empty()) upperBounds = Histogram::defaultLatencyBucketsMs();
    e.histogram = std::make_unique<Histogram>(std::move(upperBounds));
  }
  return *e.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  util::MutexLock lock(mutex_);
  MetricsSnapshot out;
  out.metrics.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {  // std::map → name-sorted
    MetricValue v;
    v.name = name;
    v.help = entry.help;
    v.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        v.counterValue = entry.counter->value();
        break;
      case MetricKind::kGauge:
        v.gaugeValue = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        v.histogram = entry.histogram->data();
        break;
    }
    out.metrics.push_back(std::move(v));
  }
  return out;
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace bf::obs
