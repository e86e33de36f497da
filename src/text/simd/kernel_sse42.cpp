// SSE4.2 batch fingerprint kernel (see kernel.h). Compiled with -msse4.2
// (per-file flags in src/text/CMakeLists.txt); only entered after
// dispatch.cpp's cpuid probe.
//
// Same round structure as the AVX2 kernel, scaled down:
//
//   normalize  16 input bytes per vector; compaction has no PEXT at this
//              tier, so each 8-byte half is packed with PSHUFB through a
//              256-entry LUT mapping the keep-mask byte to the indices of
//              its set bits.
//   hash       2 Karp-Rabin lanes stepped by a stride-2 block recurrence
//              (bit-exact mod 2^64, valid for n >= 2):
//                H(g+2) = H(g)*B^2
//                         - c[g]*B^{n+1} - c[g+1]*B^n
//                         + c[g+n]*B     + c[g+n+1]
//              followed by a 2-lane mix64 and the hash-width mask.
//   winnow     BatchPipeline::consumeHashes — the scalar kernel's exact
//              winnow, unchanged.
#include "text/simd/kernel.h"

#if defined(BF_TEXT_SIMD_X86)

#include <nmmintrin.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "text/normalizer.h"
#include "text/simd/batch_pipeline.h"
#include "util/hashing.h"

namespace bf::text::simd {

namespace {

constexpr std::size_t kLanes = 2;

/// kCompact8[m] lists the set-bit positions of the mask byte m, 0-padded
/// to 8 entries: the PSHUFB control that packs an 8-byte group's kept
/// bytes to the front. Padding lanes shuffle in garbage that the next
/// group's store overwrites (the output buffers reserve the slack).
constexpr std::array<std::array<std::uint8_t, 8>, 256> kCompact8 = [] {
  std::array<std::array<std::uint8_t, 8>, 256> t{};
  for (int m = 0; m < 256; ++m) {
    int out = 0;
    for (int b = 0; b < 8; ++b) {
      if ((m >> b) & 1) t[static_cast<std::size_t>(m)]
                         [static_cast<std::size_t>(out++)] =
          static_cast<std::uint8_t>(b);
    }
  }
  return t;
}();

/// a * K mod 2^64 per 64-bit lane (see kernel_avx2.cpp's mulConst64).
[[gnu::always_inline]] inline __m128i mulConst64(__m128i a, __m128i kLo, __m128i kHi) {
  const __m128i lo = _mm_mul_epu32(a, kLo);
  const __m128i mid = _mm_add_epi64(
      _mm_mul_epu32(a, kHi), _mm_mul_epu32(_mm_srli_epi64(a, 32), kLo));
  return _mm_add_epi64(lo, _mm_slli_epi64(mid, 32));
}

/// c * K mod 2^64 for byte-valued lanes (< 2^8): two PMULUDQ.
[[gnu::always_inline]] inline __m128i mulByteConst(__m128i c, __m128i kLo, __m128i kHi) {
  return _mm_add_epi64(_mm_mul_epu32(c, kLo),
                       _mm_slli_epi64(_mm_mul_epu32(c, kHi), 32));
}

struct SplitConst {
  __m128i lo, hi;
  explicit SplitConst(std::uint64_t k)
      : lo(_mm_set1_epi64x(static_cast<long long>(k & 0xFFFFFFFFULL))),
        hi(_mm_set1_epi64x(static_cast<long long>(k >> 32))) {}
};

/// 2-lane util::mix64, bit-exact.
[[gnu::always_inline]] inline __m128i mix64x2(__m128i x, const SplitConst& m1, const SplitConst& m2) {
  x = _mm_add_epi64(
      x, _mm_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 30));
  x = mulConst64(x, m1.lo, m1.hi);
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 27));
  x = mulConst64(x, m2.lo, m2.hi);
  return _mm_xor_si128(x, _mm_srli_epi64(x, 31));
}

/// 2 consecutive bytes at p, zero-extended to the 2 hash lanes.
[[gnu::always_inline]] inline __m128i loadBytes2(const unsigned char* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm_cvtepu8_epi64(_mm_cvtsi32_si128(v));
}

/// SSE4.2 normalization; same contract as kernel_avx2.cpp's normalizeAvx2
/// (8 bytes / 8 entries of overwrite slack past the returned count).
std::size_t normalizeSse42(const unsigned char* in, std::size_t len,
                           std::size_t inBase, unsigned char* outChars,
                           std::uint32_t* outOffs) {
  std::size_t out = 0;
  std::size_t i = 0;
  const __m128i vA = _mm_set1_epi8('A');
  const __m128i vZ = _mm_set1_epi8('Z');
  const __m128i va = _mm_set1_epi8('a');
  const __m128i vz = _mm_set1_epi8('z');
  const __m128i v0 = _mm_set1_epi8('0');
  const __m128i v9 = _mm_set1_epi8('9');
  const __m128i vCase = _mm_set1_epi8(0x20);
  const __m128i zero = _mm_setzero_si128();

  for (; i + 16 <= len; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i isUpper =
        _mm_and_si128(_mm_cmpeq_epi8(_mm_max_epu8(x, vA), x),
                      _mm_cmpeq_epi8(_mm_min_epu8(x, vZ), x));
    const __m128i folded = _mm_or_si128(x, _mm_and_si128(isUpper, vCase));
    const __m128i isLower =
        _mm_and_si128(_mm_cmpeq_epi8(_mm_max_epu8(folded, va), folded),
                      _mm_cmpeq_epi8(_mm_min_epu8(folded, vz), folded));
    const __m128i isDigit =
        _mm_and_si128(_mm_cmpeq_epi8(_mm_max_epu8(folded, v0), folded),
                      _mm_cmpeq_epi8(_mm_min_epu8(folded, v9), folded));
    const __m128i isHigh = _mm_cmpgt_epi8(zero, x);
    const __m128i keep = _mm_or_si128(_mm_or_si128(isLower, isDigit), isHigh);

    const unsigned m = static_cast<unsigned>(_mm_movemask_epi8(keep));
    // Low 8-byte half.
    {
      const unsigned mb = m & 0xFFu;
      const __m128i idx = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(kCompact8[mb].data()));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(outChars + out),
                       _mm_shuffle_epi8(folded, idx));
      const __m128i baseV = _mm_set1_epi32(static_cast<int>(inBase + i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(outOffs + out),
                       _mm_add_epi32(_mm_cvtepu8_epi32(idx), baseV));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(outOffs + out + 4),
          _mm_add_epi32(_mm_cvtepu8_epi32(_mm_srli_si128(idx, 4)), baseV));
      out += static_cast<std::size_t>(__builtin_popcount(mb));
    }
    // High 8-byte half: LUT indices shifted into 8..15; adding the shift
    // to the index vector keeps the offset math (base + idx) uniform.
    {
      const unsigned mb = (m >> 8) & 0xFFu;
      const __m128i idx = _mm_add_epi8(
          _mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(kCompact8[mb].data())),
          _mm_set1_epi8(8));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(outChars + out),
                       _mm_shuffle_epi8(folded, idx));
      const __m128i baseV = _mm_set1_epi32(static_cast<int>(inBase + i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(outOffs + out),
                       _mm_add_epi32(_mm_cvtepu8_epi32(idx), baseV));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(outOffs + out + 4),
          _mm_add_epi32(_mm_cvtepu8_epi32(_mm_srli_si128(idx, 4)), baseV));
      out += static_cast<std::size_t>(__builtin_popcount(mb));
    }
  }

  const auto& tab = text::kNormTable;
  for (; i < len; ++i) {
    const unsigned char keep = tab[in[i]];
    if (keep == 0) continue;
    outChars[out] = keep;
    outOffs[out] = static_cast<std::uint32_t>(inBase + i);
    ++out;
  }
  return out;
}

/// Powers of KarpRabin::kBase for the stride-2 recurrence.
struct HashConsts {
  std::uint64_t topPow;        // B^{n-1}
  std::uint64_t bL;            // B^2
  std::uint64_t outP[kLanes];  // B^{n+1}, B^n
  std::uint64_t inP[kLanes];   // B, 1
  explicit HashConsts(std::size_t n) {
    constexpr std::uint64_t B = util::KarpRabin::kBase;
    std::uint64_t p = 1;
    for (std::size_t i = 1; i < n; ++i) p *= B;
    topPow = p;
    bL = B * B;
    outP[0] = topPow * bL;  // B^{n+1}
    outP[1] = topPow * B;   // B^n
    inP[0] = B;
    inP[1] = 1;
  }
};

void hashRoundSse42(const unsigned char* chars, std::size_t first,
                    std::size_t count, std::size_t n, std::uint64_t mask,
                    const HashConsts& hc, std::uint64_t* out) {
  if (count == 0) return;
  const char* base = reinterpret_cast<const char*>(chars) + first;

  util::KarpRabin roller(n);
  std::uint64_t h = roller.init(std::string_view(base, n));
  alignas(16) std::uint64_t lane[kLanes];
  lane[0] = h;
  out[0] = util::mix64(h) & mask;
  const std::size_t seed = std::min(count, kLanes);
  for (std::size_t k = 1; k < seed; ++k) {
    h = roller.roll(base[k - 1], base[k - 1 + n]);
    lane[k] = h;
    out[k] = util::mix64(h) & mask;
  }

  std::size_t k = seed;
  if (n >= kLanes && count > kLanes) {
    const SplitConst m1(0xbf58476d1ce4e5b9ULL);
    const SplitConst m2(0x94d049bb133111ebULL);
    const SplitConst cBL(hc.bL);
    const SplitConst cOut0(hc.outP[0]), cOut1(hc.outP[1]);
    const SplitConst cIn0(hc.inP[0]), cIn1(hc.inP[1]);
    const __m128i vMask = _mm_set1_epi64x(static_cast<long long>(mask));

    __m128i V = _mm_load_si128(reinterpret_cast<const __m128i*>(lane));
    for (; k + kLanes <= count; k += kLanes) {
      const unsigned char* p = chars + first + (k - kLanes);
      V = mulConst64(V, cBL.lo, cBL.hi);
      V = _mm_sub_epi64(V, mulByteConst(loadBytes2(p), cOut0.lo, cOut0.hi));
      V = _mm_add_epi64(V, mulByteConst(loadBytes2(p + n), cIn0.lo, cIn0.hi));
      V = _mm_sub_epi64(V, mulByteConst(loadBytes2(p + 1), cOut1.lo, cOut1.hi));
      V = _mm_add_epi64(V,
                        mulByteConst(loadBytes2(p + n + 1), cIn1.lo, cIn1.hi));
      const __m128i mixed = _mm_and_si128(mix64x2(V, m1, m2), vMask);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), mixed);
    }
    if (k < count) {
      h = static_cast<std::uint64_t>(_mm_extract_epi64(V, 1));
    }
  }
  constexpr std::uint64_t B = util::KarpRabin::kBase;
  for (; k < count; ++k) {
    h -= hc.topPow * chars[first + k - 1];
    h = h * B + chars[first + k - 1 + n];
    out[k] = util::mix64(h) & mask;
  }
}

}  // namespace

Fingerprint fingerprintTextSse42(std::string_view input,
                                 const FingerprintConfig& config,
                                 FingerprintWorkspace& ws) {
  const std::size_t n = config.ngramChars;
  if (input.size() < config.windowChars) return Fingerprint{};
  if (n == 0) return Fingerprint{};

  BatchPipeline bp(ws);
  if (!bp.init(config)) return fingerprintTextFusedScalar(input, config, ws);
  const HashConsts hc(n);

  const auto* bytes = reinterpret_cast<const unsigned char*>(input.data());
  for (std::size_t pos = 0; pos < input.size();
       pos += BatchPipeline::kChunkChars) {
    const std::size_t len =
        std::min(BatchPipeline::kChunkChars, input.size() - pos);
    const std::size_t added =
        normalizeSse42(bytes + pos, len, pos, bp.charAppend(), bp.offAppend());
    const BatchPipeline::Round round = bp.beginRound(added);
    if (round.grams > 0) {
      hashRoundSse42(bp.charsBase(), round.firstGramLocal, round.grams,
                     n, bp.mask, hc, bp.hashOut());
      bp.consumeHashes(round.grams);
    }
    bp.endRound();
  }
  return bp.finish(config);
}

}  // namespace bf::text::simd

#endif  // BF_TEXT_SIMD_X86
