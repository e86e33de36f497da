#include "text/winnower.h"

#include "text/fingerprint_kernel.h"
#include "text/ngram_hasher.h"

namespace bf::text {

std::vector<HashedGram> winnow(const std::vector<HashedGram>& grams,
                               std::size_t windowHashes) {
  std::vector<HashedGram> selected;
  if (grams.empty() || windowHashes == 0) return selected;
  const std::size_t w = windowHashes;
  if (grams.size() < w) return selected;  // cannot fill a single window

  // Monotonic queue of indices; front is the index of the rightmost minimal
  // hash in the current window. Using ">=" when popping keeps the rightmost
  // of equal hashes (robust winnowing tie-break). Backed by a vector with a
  // head cursor (pop_front = ++head) — the hot path uses the flat ring in
  // fingerprint_kernel.cpp; this reference copy stays deque-free too so the
  // std::deque ban in src/text (scripts/bflint.py) holds tree-wide.
  std::vector<std::size_t> queue;
  queue.reserve(w + 1);
  std::size_t head = 0;
  std::size_t lastSelected = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < grams.size(); ++i) {
    while (queue.size() > head && grams[queue.back()].hash >= grams[i].hash) {
      queue.pop_back();
    }
    if (head > w) {
      // Compact the dead prefix. Each compaction moves at most the w live
      // entries and reclaims > w slots, so the cost is amortised O(1) per
      // gram and the storage stays O(w).
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    queue.push_back(i);
    if (i + 1 < w) continue;
    const std::size_t windowStart = i + 1 - w;
    while (queue[head] < windowStart) ++head;
    const std::size_t pick = queue[head];
    // The same gram is typically minimal across many consecutive windows;
    // record it once. This is what keeps fingerprints sparse.
    if (pick != lastSelected) {
      selected.push_back(grams[pick]);
      lastSelected = pick;
    }
  }
  return selected;
}

Fingerprint fingerprintText(std::string_view input,
                            const FingerprintConfig& config) {
  return fingerprintTextFused(input, config,
                              threadLocalFingerprintWorkspace());
}

Fingerprint fingerprintTextReference(std::string_view input,
                                     const FingerprintConfig& config) {
  const NormalizedText norm = normalize(input);
  if (norm.size() < config.windowChars) return Fingerprint{};
  const std::vector<HashedGram> grams =
      hashNgrams(norm, config.ngramChars);
  std::vector<HashedGram> selected = winnow(grams, config.windowHashes());
  // Translate normalized positions to ORIGINAL byte offsets, so disclosure
  // can be attributed to user-visible source passages (paper S4.1:
  // "provided that the location of the corresponding source text for each
  // hash in the fingerprint is also stored").
  for (HashedGram& g : selected) {
    g.pos = norm.originalOffset[g.pos];
  }
  return Fingerprint::fromSelected(std::move(selected));
}

}  // namespace bf::text
