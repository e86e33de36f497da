#include "core/secret_guard.h"

#include "obs/metrics.h"
#include "text/normalizer.h"

namespace bf::core {

namespace {
obs::Counter& scansCounter() {
  static obs::Counter& c = obs::registry().counter(
      "bf_secret_scans_total", "Texts scanned for registered short secrets");
  return c;
}
obs::Counter& hitsCounter() {
  static obs::Counter& c = obs::registry().counter(
      "bf_secret_hits_total", "Registered secrets found verbatim in texts");
  return c;
}

/// This thread's "already reported by scan number `epoch`" stamp per secret
/// index: scan() reports each secret once without a per-call allocation.
struct ReportedStamps {
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
};
thread_local ReportedStamps t_reported;
}  // namespace

SecretGuard::SecretGuard() : automaton_(text::kNormTable) {}

bool SecretGuard::addSecret(std::string name, std::string_view value,
                            tdm::Tag tag) {
  const text::NormalizedText normalized = text::normalize(value);
  if (normalized.size() < kMinLength) return false;
  automaton_.addPattern(normalized.text, secrets_.size());
  secrets_.push_back(Secret{std::move(name), std::move(tag)});
  ++generation_;
  return true;
}

std::vector<SecretGuard::Hit> SecretGuard::scan(sec::SensitiveView text) {
  std::vector<Hit> out;
  if (secrets_.empty()) return out;
  scansCounter().inc();
  ReportedStamps& reported = t_reported;
  if (reported.stamp.size() < secrets_.size()) {
    reported.stamp.resize(secrets_.size(), 0);
  }
  const std::uint64_t epoch = ++reported.epoch;
  automaton_.forEachMatch(text.raw(), [&](std::uint64_t id) {
    if (reported.stamp[id] == epoch) return;
    reported.stamp[id] = epoch;
    out.push_back(Hit{secrets_[id].name, secrets_[id].tag});
  });
  hitsCounter().inc(out.size());
  return out;
}

bool SecretGuard::containsSecret(sec::SensitiveView text) {
  if (secrets_.empty()) return false;
  return automaton_.containsAny(text.raw());
}

}  // namespace bf::core
