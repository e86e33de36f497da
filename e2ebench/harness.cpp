#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace e2e {

void Report::violation(std::string what) {
  correct = false;
  // Keep the first few; a systematic fault would otherwise flood stdout.
  if (violations.size() < 20) violations.push_back(std::move(what));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
double statusFieldMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}
}  // namespace

double rssMb() { return statusFieldMb("VmRSS"); }
double peakRssMb() { return statusFieldMb("VmHWM"); }

double EventLog::percentileMs(double p) const { return percentile(latencyMs_, p); }

double EventLog::eventsPerSec() const {
  double ms = 0.0;
  for (double x : latencyMs_) ms += x;
  return ms > 0 ? static_cast<double>(latencyMs_.size()) * 1e3 / ms : 0.0;
}

std::string VerdictDigest::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

bf::browser::HttpResponse NetTap::handle(const bf::browser::HttpRequest& request) {
  ++requests;
  bytes += request.body.size();
  if (!timing) return inner_->handle(request);
  const auto t0 = SteadyClock::now();
  bf::browser::HttpResponse response = inner_->handle(request);
  busySec += secondsSince(t0);
  return response;
}

void tapXhr(bf::browser::Page& page, double* accumulator) {
  auto patched = page.xhrPrototype().send;
  page.xhrPrototype().send = [patched, accumulator](
                                 bf::browser::Xhr& xhr,
                                 const bf::browser::HttpRequest& req) {
    const auto t0 = SteadyClock::now();
    bf::browser::HttpResponse response = patched(xhr, req);
    *accumulator += secondsSince(t0);
    return response;
  };
}

}  // namespace e2e
