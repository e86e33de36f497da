#include "core/secret_guard.h"

#include <algorithm>

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

obs::Counter& scannedBytesCounter() {
  static obs::Counter& c = obs::registry().counter(
      "bf_secret_scanned_bytes_total",
      "Text bytes walked by secret scans (a rescan walks the edit only)");
  return c;
}

/// This thread's "already reported by call number `epoch`" stamp per
/// secret index: hitsOf() reports each secret once without a per-call
/// allocation.
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

std::vector<SecretGuard::Match> SecretGuard::matches(
    sec::SensitiveView text) {
  std::vector<Match> out;
  if (secrets_.empty()) return out;
  scansCounter().inc();
  automaton_.walk(text.raw(), {}, [&](const text::AhoCorasick::Match& m) {
    out.push_back(Match{m.id, m.end});
    return true;
  });
  scannedBytesCounter().inc(text.raw().size());
  return out;
}

std::vector<SecretGuard::Match> SecretGuard::rescan(
    sec::SensitiveView oldView, std::span<const Match> oldMatches,
    sec::SensitiveView newView, text::SharedEdges shared) {
  std::vector<Match> out;
  if (secrets_.empty()) return out;
  scansCounter().inc();
  const std::string_view oldText = oldView.raw();
  const std::string_view text = newView.raw();
  // A DFA state depends only on the last `window` consumed symbols, and
  // skipped bytes never move it. Enter the walk `window` consumed symbols
  // before the shared prefix ends: from the prefix's end on, its state is
  // the full walk's. Up to there both texts are the same bytes, so the old
  // matches stand.
  const std::size_t window = automaton_.maxPatternLength();
  std::size_t begin = shared.prefix;
  for (std::size_t kept = 0; begin > 0 && kept < window;) {
    kept += automaton_.consumes(static_cast<unsigned char>(text[--begin]));
  }
  // Stop `window` consumed symbols into the shared suffix: there the last
  // window of consumed symbols is the old text's at the same distance from
  // the end, so from there on the old matches, moved past the edit, stand.
  std::size_t stop = text.size() - shared.suffix;
  for (std::size_t kept = 0; stop < text.size() && kept < window;) {
    kept += automaton_.consumes(static_cast<unsigned char>(text[stop++]));
  }
  const auto head = std::partition_point(
      oldMatches.begin(), oldMatches.end(),
      [&](const Match& m) { return m.end <= shared.prefix; });
  out.assign(oldMatches.begin(), head);
  automaton_.walk(text, {begin, shared.prefix, stop},
                  [&](const text::AhoCorasick::Match& m) {
                    out.push_back(Match{m.id, m.end});
                    return true;
                  });
  scannedBytesCounter().inc(stop - begin);
  const std::size_t oldStop = stop + oldText.size() - text.size();
  const auto tail =
      std::partition_point(head, oldMatches.end(),
                           [&](const Match& m) { return m.end <= oldStop; });
  for (auto it = tail; it != oldMatches.end(); ++it) {
    out.push_back(Match{it->secret, it->end + text.size() - oldText.size()});
  }
  return out;
}

std::vector<SecretGuard::Hit> SecretGuard::hitsOf(
    std::span<const Match> found) {
  std::vector<Hit> out;
  if (found.empty()) return out;
  ReportedStamps& reported = t_reported;
  if (reported.stamp.size() < secrets_.size()) {
    reported.stamp.resize(secrets_.size(), 0);
  }
  const std::uint64_t epoch = ++reported.epoch;
  for (const Match& m : found) {
    if (reported.stamp[m.secret] == epoch) continue;
    reported.stamp[m.secret] = epoch;
    out.push_back(Hit{secrets_[m.secret].name, secrets_[m.secret].tag});
  }
  hitsCounter().inc(out.size());
  return out;
}

std::vector<SecretGuard::Hit> SecretGuard::scan(sec::SensitiveView text) {
  return hitsOf(matches(text));
}

bool SecretGuard::containsSecret(sec::SensitiveView text) {
  if (secrets_.empty()) return false;
  return automaton_.containsAny(text.raw());
}

}  // namespace bf::core
