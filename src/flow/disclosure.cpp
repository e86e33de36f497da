#include "flow/disclosure.h"

namespace bf::flow {

std::vector<text::Hash> authoritativeHashes(const SegmentRecord& source,
                                               const HashDb& hashDb) {
  std::vector<text::Hash> out;
  const auto& hashes = source.fingerprint.hashes();
  out.reserve(hashes.size());
  for (text::Hash h : hashes) {
    const auto oldest = hashDb.oldestSegmentWith(source.kind, h);
    if (oldest && *oldest == source.id) out.push_back(h);
  }
  return out;
}

std::size_t authoritativeOverlap(const SegmentRecord& source,
                                 const text::Fingerprint& target,
                                 const HashDb& hashDb) {
  std::size_t overlap = 0;
  for (text::Hash h : source.fingerprint.hashes()) {
    if (!target.contains(h)) continue;
    const auto oldest = hashDb.oldestSegmentWith(source.kind, h);
    if (oldest && *oldest == source.id) ++overlap;
  }
  return overlap;
}

double disclosureScore(const SegmentRecord& source,
                       const text::Fingerprint& target,
                       const HashDb& hashDb) {
  const std::size_t total = source.fingerprint.size();
  if (total == 0) return 0.0;
  return static_cast<double>(authoritativeOverlap(source, target, hashDb)) /
         static_cast<double>(total);
}

bool isDisclosed(double score, std::size_t overlap,
                 double threshold) noexcept {
  return overlap > 0 && score >= threshold;
}

}  // namespace bf::flow
