// Shared plumbing of the end-to-end verdict benchmark: run options, the
// report it prints, per-event latency bookkeeping, and the bench-side taps
// (network sink decorator, XHR prototype wrapper) that time the layers
// from outside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "browser/http.h"
#include "browser/page.h"

namespace e2e {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints: the last stdout line is the JSON object
/// built from this; the lines before it are the human-readable report.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;       ///< human-readable context lines
  std::vector<std::string> violations;  ///< correctness failures

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness violation (the run then exits non-zero).
  void violation(std::string what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

/// Current and peak resident set size of this process, in MiB.
[[nodiscard]] double rssMb();
[[nodiscard]] double peakRssMb();

/// Per-event latencies of one closed-loop phase (each event starts when
/// the previous one finished, so latency is also main-thread busy time).
/// Statistics pool the whole phase: the host's speed drifts in spells of
/// seconds, and a pooled figure averages over them where a median of
/// stretches would follow whichever spell holds most stretches.
class EventLog {
 public:
  void add(double latencySec) { latencyMs_.push_back(latencySec * 1e3); }

  [[nodiscard]] std::size_t size() const noexcept { return latencyMs_.size(); }
  [[nodiscard]] double percentileMs(double p) const;
  [[nodiscard]] double eventsPerSec() const;

 private:
  std::vector<double> latencyMs_;
};

/// FNV-1a digest over the first `limit` event verdicts; identical across
/// runs with the same seed.
class VerdictDigest {
 public:
  explicit VerdictDigest(std::uint64_t limit) : limit_(limit) {}
  void add(std::uint64_t code) {
    if (count_ >= limit_) return;
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (code >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
    ++count_;
  }
  [[nodiscard]] bool complete() const noexcept { return count_ >= limit_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t limit_;
  std::uint64_t count_ = 0;
  std::uint64_t hash_ = 14695981039346656037ull;
};

// ---- taps --------------------------------------------------------------------

/// RequestSink decorator between the browser and the simulated network:
/// counts requests and request bytes, and with `timing` on, accumulates
/// the wall time spent inside the network layer.
class NetTap final : public bf::browser::RequestSink {
 public:
  explicit NetTap(bf::browser::RequestSink* inner) : inner_(inner) {}
  bf::browser::HttpResponse handle(
      const bf::browser::HttpRequest& request) override;

  bool timing = false;
  double busySec = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;

 private:
  bf::browser::RequestSink* inner_;
};

/// Wraps a page's (already plug-in-patched) XMLHttpRequest.prototype.send
/// so each send's wall time — interception plus network — is added to
/// `*accumulator`. Installed only in traced runs.
void tapXhr(bf::browser::Page& page, double* accumulator);

}  // namespace e2e
