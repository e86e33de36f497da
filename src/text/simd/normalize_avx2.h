// AVX2 + BMI2 vector normalization for the AVX-512 kernel (the kAvx512
// feature set includes AVX2 and BMI2, but not VBMI2, which a native
// 512-bit byte compaction would need). Include ONLY from TUs compiled
// with -mavx2 -mbmi2.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "text/fingerprint_kernel.h"
#include "text/normalizer.h"

namespace bf::text::simd::detail {

/// Normalizes `len` input bytes starting at global offset `inBase`,
/// appending kept characters to outChars and their original input offsets
/// to outOffs. Both buffers need 8 bytes / 8 entries of overwrite slack
/// past the returned count (BatchPipeline reserves 32). Returns the
/// number of characters kept.
///
/// 32 input bytes per vector: classify with unsigned range compares
/// (max/min + cmpeq), fold case with OR 0x20, then compact each 8-byte
/// group with PEXT — one _pext_u64 packs the kept characters, a second
/// packs the byte-index ramp 0x0706050403020100 into the kept chars'
/// source offsets.
inline std::size_t normalizeAvx2(const unsigned char* in, std::size_t len,
                                 std::size_t inBase, unsigned char* outChars,
                                 std::uint32_t* outOffs) {
  std::size_t out = 0;
  std::size_t i = 0;
  const __m256i vA = _mm256_set1_epi8('A');
  const __m256i vZ = _mm256_set1_epi8('Z');
  const __m256i va = _mm256_set1_epi8('a');
  const __m256i vz = _mm256_set1_epi8('z');
  const __m256i v0 = _mm256_set1_epi8('0');
  const __m256i v9 = _mm256_set1_epi8('9');
  const __m256i vCase = _mm256_set1_epi8(0x20);
  const __m256i zero = _mm256_setzero_si256();
  constexpr std::uint64_t kIdxRamp = 0x0706050403020100ULL;

  for (; i + 32 <= len; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    // Unsigned range test a <= x <= b as (max(x,a) == x) & (min(x,b) == x).
    const __m256i isUpper = _mm256_and_si256(
        _mm256_cmpeq_epi8(_mm256_max_epu8(x, vA), x),
        _mm256_cmpeq_epi8(_mm256_min_epu8(x, vZ), x));
    // Case fold: only [A-Z] lanes get 0x20 OR'd in; >= 0x80 bytes fail the
    // x <= 'Z' test, so they pass through verbatim like the scalar table.
    const __m256i folded = _mm256_or_si256(x, _mm256_and_si256(isUpper, vCase));
    const __m256i isLower = _mm256_and_si256(
        _mm256_cmpeq_epi8(_mm256_max_epu8(folded, va), folded),
        _mm256_cmpeq_epi8(_mm256_min_epu8(folded, vz), folded));
    const __m256i isDigit = _mm256_and_si256(
        _mm256_cmpeq_epi8(_mm256_max_epu8(folded, v0), folded),
        _mm256_cmpeq_epi8(_mm256_min_epu8(folded, v9), folded));
    const __m256i isHigh = _mm256_cmpgt_epi8(zero, x);  // signed < 0 == >= 0x80
    const __m256i keep =
        _mm256_or_si256(_mm256_or_si256(isLower, isDigit), isHigh);

    alignas(32) std::uint64_t charsQ[4];
    alignas(32) std::uint64_t maskQ[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(charsQ), folded);
    _mm256_store_si256(reinterpret_cast<__m256i*>(maskQ), keep);
    for (int g = 0; g < 4; ++g) {
      const std::uint64_t m = maskQ[g];
      // PEXT compacts the kept characters to the low bytes; the same mask
      // applied to the index ramp yields their offsets within the group.
      const std::uint64_t packed = _pext_u64(charsQ[g], m);
      std::memcpy(outChars + out, &packed, sizeof(packed));
      const std::uint64_t idx = _pext_u64(kIdxRamp, m);
      const __m256i offs = _mm256_add_epi32(
          _mm256_cvtepu8_epi32(
              _mm_cvtsi64_si128(static_cast<long long>(idx))),
          _mm256_set1_epi32(static_cast<int>(inBase + i) + g * 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(outOffs + out), offs);
      out += static_cast<std::size_t>(_mm_popcnt_u64(m)) >> 3;
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

}  // namespace bf::text::simd::detail
