#include "text/fingerprint_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "text/normalizer.h"
#include "text/simd/kernel.h"
#include "util/hashing.h"

namespace bf::text {

namespace {

/// Smallest power of two >= max(v, 1).
std::size_t roundPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Monotone bucket remap for finalizeSelectedFingerprint's MSD pass.
/// Index = top 13 bits of the hash; value = one of 2048
/// buckets placed along the CDF of a 16-window minimum, 1 - (1 - u)^16
/// evaluated in 0.32 fixed point (four squarings). Winnow picks ARE
/// window minima, so remapped keys land near-uniformly across buckets;
/// monotonicity keeps the bucket order a valid sort order for any input.
constexpr std::array<std::uint16_t, 8192> kMinCdfBucket = [] {
  std::array<std::uint16_t, 8192> t{};
  for (std::size_t i = 0; i < 8192; ++i) {
    std::uint64_t p = static_cast<std::uint64_t>(8192 - i) << 19;  // 1 - u
    if (p > 0xFFFFFFFFULL) p = 0xFFFFFFFFULL;
    for (int s = 0; s < 4; ++s) p = (p * p) >> 32;  // (1 - u)^16
    t[i] = static_cast<std::uint16_t>((0xFFFFFFFFULL - p) >> 21);
  }
  return t;
}();

/// The first 8 bytes at `p` as a word whose low byte is p[0].
std::uint64_t loadLittle(const char* p) noexcept {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof x);
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);
  }
  return x;
}

/// sharedEdges once the prefix is known: the common suffix of what the
/// prefix leaves of each text.
SharedEdges sharedEdgesFrom(std::string_view a, std::string_view b,
                            std::size_t prefix) noexcept {
  const std::size_t room = std::min(a.size(), b.size()) - prefix;
  const char* ea = a.data() + a.size();
  const char* eb = b.data() + b.size();
  std::size_t q = 0;
  for (; q + 8 <= room; q += 8) {
    const std::uint64_t diff = loadLittle(ea - q - 8) ^ loadLittle(eb - q - 8);
    if (diff != 0) return {prefix, q + std::countl_zero(diff) / 8};
  }
  while (q < room && *(ea - q - 1) == *(eb - q - 1)) ++q;
  return {prefix, q};
}

}  // namespace

namespace detail {

Fingerprint finalizeSelectedFingerprint(FingerprintWorkspace& ws) {
  // Winnowing emits strictly increasing pick indices, so selected_ is
  // already in position order and becomes the fingerprint's gram vector
  // wholesale — the workspace re-reserves a like-sized buffer for the
  // next call instead of copying this one out. The hash set is sorted
  // with a bucket radix (ping-ponging through the workspace scratch):
  // the selected hashes are effectively random, so a comparison sort
  // would mispredict on nearly every compare and dominate the whole
  // kernel.
  std::vector<HashedGram> grams = std::move(ws.selected_);
  ws.selected_.clear();  // moved-from: make the state definite
  ws.selected_.reserve(grams.size() + grams.size() / 8 + 64);
  const std::size_t count = grams.size();
  if (ws.sortTmp_.size() < 2 * count) ws.sortTmp_.resize(2 * count);
  Hash* src = ws.sortTmp_.data();
  Hash* dst = src + count;
  const Hash* sorted = nullptr;  // the sorted hashes, src or dst
  if (count <= 2048) {
    // Small sets (every default-config call: ~2 picks per window of 30
    // chars) sort with ONE MSD bucket pass + insertion repair instead
    // of three LSD passes: with at least as many buckets as elements
    // the scatter output is already globally ordered by bucket and
    // buckets average under one element, so insertion sort only fixes
    // local inversions. The bucket count is bit_ceil(count), at least 16,
    // so a keystroke's handful of picks clears and prefix-sums 16
    // counters. Buckets are the top bits of kMinCdfBucket,
    // indexed by a hash's top 13 bits, so window-minimum-shaped values
    // spread evenly and bucket order stays a valid sort order. A crafted
    // input (or a window width far from 16) could still pile picks into
    // one bucket and make the insertion quadratic, so the histogram pass
    // tracks the fullest bucket and falls through to the
    // pass-count-oblivious LSD radix past 64.
    const std::size_t buckets = std::max<std::size_t>(std::bit_ceil(count), 16);
    const int shift = 11 - std::countr_zero(buckets);  // kMinCdfBucket: 11 bits
    std::uint16_t h[2049];
    std::fill_n(h, buckets + 1, std::uint16_t{0});
    std::uint16_t maxBucket = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const Hash x = grams[k].hash;
      src[k] = x;
      maxBucket =
          std::max(maxBucket, ++h[(kMinCdfBucket[x >> 19] >> shift) + 1]);
    }
    if (maxBucket <= 64) {
      for (std::size_t b = 0; b < buckets; ++b) h[b + 1] += h[b];
      for (std::size_t k = 0; k < count; ++k) {
        dst[h[kMinCdfBucket[src[k] >> 19] >> shift]++] = src[k];
      }
      for (std::size_t k = 1; k < count; ++k) {
        const Hash x = dst[k];
        std::size_t j = k;
        while (j > 0 && dst[j - 1] > x) {
          dst[j] = dst[j - 1];
          --j;
        }
        dst[j] = x;
      }
      sorted = dst;
    }
  }
  if (sorted == nullptr) {
    // All three 11-bit histograms in one data pass: the counter
    // read-modify-writes are the radix bottleneck, and interleaving three
    // independent streams gives the core parallel chains to retire.
    std::uint32_t h0[2049] = {0}, h1[2049] = {0}, h2[1025] = {0};
    for (std::size_t k = 0; k < count; ++k) {
      const Hash x = grams[k].hash;
      src[k] = x;
      ++h0[(x & 0x7FF) + 1];
      ++h1[((x >> 11) & 0x7FF) + 1];
      ++h2[(x >> 22) + 1];
    }
    for (int b = 0; b < 2048; ++b) h0[b + 1] += h0[b];
    for (int b = 0; b < 2048; ++b) h1[b + 1] += h1[b];
    for (int b = 0; b < 1024; ++b) h2[b + 1] += h2[b];
    for (std::size_t k = 0; k < count; ++k) {
      dst[h0[src[k] & 0x7FF]++] = src[k];
    }
    for (std::size_t k = 0; k < count; ++k) {
      src[h1[(dst[k] >> 11) & 0x7FF]++] = dst[k];
    }
    for (std::size_t k = 0; k < count; ++k) {
      dst[h2[src[k] >> 22]++] = src[k];
    }
    sorted = dst;
  }
  // Dedup branchless: duplicates are rare (random 32-bit values), so
  // always store and advance conditionally instead of a per-element
  // push_back.
  std::vector<Hash> hashes(count);
  std::size_t m = 0;
  std::uint64_t prev = ~0ULL;  // > any Hash: never matches
  for (std::size_t k = 0; k < count; ++k) {
    const Hash x = sorted[k];
    hashes[m] = x;
    m += static_cast<std::size_t>(x != prev);
    prev = x;
  }
  hashes.resize(m);
  return Fingerprint::fromSortedParts(std::move(grams), std::move(hashes));
}

}  // namespace detail

void FingerprintWorkspace::prepare(std::size_t n, std::size_t w) {
  // The deepest lookback into the character ring is a winnow pick's start
  // offset: the pick lags the current gram by up to w - 1, whose first
  // character lags the newest normalized character by another n - 1.
  const std::size_t charCap = roundPow2(n + w);
  if (chars_.size() < charCap) {
    chars_.resize(charCap);
    charOff_.resize(charCap);
  }
  charMask_ = charCap - 1;
  if (blockKeys_.size() < w) {
    blockKeys_.resize(w);
    suffixMin_.resize(w);
  }
  selected_.clear();
}

namespace detail {

bool selectGrams(std::string_view input, const FingerprintConfig& config,
                 FingerprintWorkspace& ws) {
#if defined(BF_TEXT_SIMD_X86)
  if (simd::activeKernelTier() == simd::KernelTier::kAvx512) {
    return simd::selectGramsAvx512(input, config, ws);
  }
#endif
  return selectGramsScalar(input, config, ws);
}

bool selectGramsScalar(std::string_view input, const FingerprintConfig& config,
                       FingerprintWorkspace& ws) {
  const std::size_t n = config.ngramChars;
  const std::size_t w = config.windowHashes();
  // The normalized text is never longer than the input, so a short input
  // cannot fill a window (the reference checks norm.size() < windowChars).
  if (input.size() < config.windowChars) return false;
  if (n == 0) return false;  // no grams, as in hashNgrams

  ws.prepare(n, w);

  // Streams the input once: normalize each byte, keep the last n + w
  // normalized chars in a flat ring feeding the Karp-Rabin roller, and
  // winnow every finished gram as it completes.
  //
  // Packed branchless winnow. Each gram becomes one sortable key
  //
  //     key = (hash << 32) | (0xFFFFFFFF - gramIndex)
  //
  // whose minimum over a window IS robust winnowing's pick: the smallest
  // hash, ties broken towards the RIGHTMOST gram (larger index == smaller
  // inverted low word). The sliding-window minimum then comes from the
  // two-scan block decomposition (van Herk / Gil-Werman): grams are
  // grouped into blocks of w; `pfx` carries the running minimum of the
  // current block and suffixMin_[j] the backward minima of the previous
  // block, so the window [s, s+w-1] minimum is min(suffixMin_[s % w], pfx)
  // — about three branchless min ops per gram instead of a
  // mispredict-prone monotonic-queue pop loop.
  util::KarpRabin roller(n);
  std::size_t normCount = 0;  // normalized characters consumed so far
  std::uint64_t pfx = ~0ULL;
  std::size_t r = 0;  // gram index modulo w, maintained incrementally
  // Sentinel distinct from any gram index.
  std::size_t lastSelected = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const unsigned char keep = kNormTable[static_cast<unsigned char>(input[i])];
    if (keep == 0) continue;  // punctuation, whitespace, control: drop

    // Read the character leaving the n-gram window BEFORE overwriting its
    // slot: when n is a power of two the outgoing index maps to the same
    // ring slot as the incoming one.
    const char outgoing =
        normCount >= n ? ws.chars_[(normCount - n) & ws.charMask_] : '\0';
    const std::size_t slot = normCount & ws.charMask_;
    ws.chars_[slot] = static_cast<char>(keep);
    ws.charOff_[slot] = static_cast<std::uint32_t>(i);
    ++normCount;

    if (normCount < n) continue;
    std::uint64_t kr;
    if (normCount == n) {
      // First gram: the ring has not wrapped yet (n <= capacity), so the
      // first n characters are contiguous from slot 0.
      kr = roller.init(std::string_view(ws.chars_.data(), n));
    } else {
      kr = roller.roll(outgoing, static_cast<char>(keep));
    }

    const std::size_t gram = normCount - n;  // index in the gram sequence
    const Hash h = static_cast<Hash>(util::mix64(kr));
    const std::uint64_t key =
        (std::uint64_t{h} << 32) |
        (0xFFFFFFFFULL - static_cast<std::uint32_t>(gram));
    pfx = r == 0 ? key : std::min(pfx, key);
    ws.blockKeys_[r] = key;

    if (gram + 1 >= w) {
      // Window start s = gram - w + 1, s % w == (r + 1) % w.
      const std::size_t r2 = r + 1 == w ? 0 : r + 1;
      const std::uint64_t winKey =
          r2 == 0 ? pfx : std::min(ws.suffixMin_[r2], pfx);
      const std::size_t pick = 0xFFFFFFFFULL - (winKey & 0xFFFFFFFFULL);
      if (pick != lastSelected) {
        // The char ring still holds the pick's start offset: the ring
        // covers n + w positions and the pick is at most w - 1 grams
        // behind the newest character's gram.
        ws.selected_.push_back({static_cast<Hash>(winKey >> 32),
                                ws.charOff_[pick & ws.charMask_]});
        lastSelected = pick;
      }
    }
    if (r + 1 == w) {
      // Block complete: backward scan fixes its suffix minima (1 min per
      // gram amortised) before the next block overwrites it.
      ws.suffixMin_[w - 1] = ws.blockKeys_[w - 1];
      for (std::size_t j = w - 1; j-- > 0;) {
        ws.suffixMin_[j] = std::min(ws.blockKeys_[j], ws.suffixMin_[j + 1]);
      }
      r = 0;
    } else {
      ++r;
    }
  }

  return normCount >= config.windowChars && !ws.selected_.empty();
}

}  // namespace detail

Fingerprint fingerprintTextFused(std::string_view input,
                                 const FingerprintConfig& config,
                                 FingerprintWorkspace& ws) {
  return detail::selectGrams(input, config, ws)
             ? detail::finalizeSelectedFingerprint(ws)
             : Fingerprint{};
}

Fingerprint fingerprintTextFusedScalar(std::string_view input,
                                       const FingerprintConfig& config,
                                       FingerprintWorkspace& ws) {
  return detail::selectGramsScalar(input, config, ws)
             ? detail::finalizeSelectedFingerprint(ws)
             : Fingerprint{};
}


SharedEdges sharedEdges(std::string_view a, std::string_view b) noexcept {
  // A word at a time: a keystroke leaves kilobytes of both texts equal.
  // The first differing byte of a word pair is its lowest nonzero byte of
  // the XOR from the front, its highest from the back.
  const std::size_t limit = std::min(a.size(), b.size());
  SharedEdges e;
  std::size_t& p = e.prefix;
  for (; p + 8 <= limit; p += 8) {
    const std::uint64_t diff =
        loadLittle(a.data() + p) ^ loadLittle(b.data() + p);
    if (diff != 0) return sharedEdgesFrom(a, b, p + std::countr_zero(diff) / 8);
  }
  while (p < limit && a[p] == b[p]) ++p;
  return sharedEdgesFrom(a, b, p);
}

Fingerprint refingerprint(std::string_view oldText, const Fingerprint& oldFp,
                          std::string_view newText,
                          const FingerprintConfig& config,
                          FingerprintWorkspace& ws) {
  return refingerprint(oldText, oldFp, newText, config, ws,
                       sharedEdges(oldText, newText));
}

Fingerprint refingerprint(std::string_view oldText, const Fingerprint& oldFp,
                          std::string_view newText,
                          const FingerprintConfig& config,
                          FingerprintWorkspace& ws, SharedEdges shared) {
  // Normalization is per byte and stateless, so the texts' shared prefix
  // and suffix normalize to the same characters in both, and every winnow
  // window made only of those characters picks the same gram. Widen the
  // edit by `span` kept characters (one window) on each side: the
  // kernel's first window on the slice is then the last all-prefix window
  // S0, and its last window the first all-suffix window S1. Picks are
  // monotone in the window index (robust winnowing: window s + 1 keeps
  // window s's pick unless it slid out, or takes the new gram), so the
  // windows before S0 pick exactly the old grams left of the slice's first
  // pick, and the windows after S1 exactly the old grams right of its last
  // pick, moved by the length difference.
  const std::size_t span = config.ngramChars + config.windowHashes() - 1;
  if (config.ngramChars == 0) {
    return fingerprintTextFused(newText, config, ws);
  }
  std::size_t begin = shared.prefix;
  std::size_t kept = 0;
  while (begin > 0 && kept < span) {
    kept += kNormTable[static_cast<unsigned char>(newText[--begin])] != 0;
  }
  const bool keepHead = kept == span;
  std::size_t end = newText.size() - shared.suffix;
  kept = 0;
  while (end < newText.size() && kept < span) {
    kept += kNormTable[static_cast<unsigned char>(newText[end++])] != 0;
  }
  const bool keepTail = kept == span;
  if (end - begin >= newText.size()) {
    return fingerprintTextFused(newText, config, ws);
  }

  // The slice holds at least one whole window, so it has picks. They stay
  // in the workspace and the old picks are spliced around them there.
  [[maybe_unused]] const bool picked =
      detail::selectGrams(newText.substr(begin, end - begin), config, ws);
  assert(picked);
  std::vector<HashedGram>& picks = ws.selected_;
  for (HashedGram& g : picks) g.pos += static_cast<std::uint32_t>(begin);
  const std::vector<HashedGram>& old = oldFp.grams();
  const auto byPos = [](const HashedGram& g, std::int64_t pos) {
    return static_cast<std::int64_t>(g.pos) < pos;
  };
  const std::int64_t delta = static_cast<std::int64_t>(newText.size()) -
                             static_cast<std::int64_t>(oldText.size());
  const auto head =
      keepHead ? std::lower_bound(old.begin(), old.end(),
                                  std::int64_t{picks.front().pos}, byPos)
               : old.begin();
  const auto tail =
      keepTail ? std::lower_bound(old.begin(), old.end(),
                                  picks.back().pos - delta + 1, byPos)
               : old.end();
  picks.reserve(picks.size() + static_cast<std::size_t>(head - old.begin()) +
                static_cast<std::size_t>(old.end() - tail));
  picks.insert(picks.begin(), old.begin(), head);
  for (auto it = tail; it != old.end(); ++it) {
    picks.push_back({it->hash, static_cast<std::uint32_t>(it->pos + delta)});
  }
  return detail::finalizeSelectedFingerprint(ws);
}

FingerprintWorkspace& threadLocalFingerprintWorkspace() {
  thread_local FingerprintWorkspace ws;
  return ws;
}

}  // namespace bf::text
