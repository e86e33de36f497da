// AVX-512 batch fingerprint kernel (see kernel.h). This TU is compiled
// with -mavx512f -mavx512dq -mavx512bw -mavx512vl -mavx2 -mbmi2 (per-file
// flags in src/text/CMakeLists.txt) and must only be ENTERED after
// dispatch.cpp's cpuid probe — nothing in it may run at
// static-initialization time on a host without those features.
//
// Round structure (BatchPipeline drives the chunk/carry bookkeeping):
//
//   normalize  the shared AVX2 + PEXT path (normalize_avx2.h). A native
//              512-bit byte compaction needs VPCOMPRESSB (VBMI2), which
//              is deliberately not part of this tier's feature set.
//   hash       8 blocked Karp-Rabin lanes — lane j owns a contiguous
//              eighth of the round's grams — stepped one gram at a time
//              by the plain rolling recurrence (bit-exact mod 2^64):
//                H(g+1) = H(g)*B - c[g]*B^n + c[g+n]
//              with an 8-lane mix64 and the 32-bit text::Hash mask per
//              step, and an 8x8
//              transpose per 8 steps to restore gram order on output.
//   winnow     whole w-gram blocks are winnowed in-register — VPMINUQ
//              prefix/suffix scans via VALIGNQ log-steps, dedup recorded
//              as compare-mask bytes — while the block head/tail
//              grams of a round go through BatchPipeline::consumeHashes,
//              the scalar kernel's exact winnow. The two paths interleave
//              freely because they share ALL winnow state: pfx/r/
//              lastSelected plus the previous block's suffix minima in
//              FingerprintWorkspace::suffixMin_.
#include "text/simd/kernel.h"

#if defined(BF_TEXT_SIMD_X86)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "text/simd/batch_pipeline.h"
#include "text/simd/normalize_avx2.h"
#include "util/hashing.h"

namespace bf::text::simd {

namespace {

constexpr std::size_t kLanes = 8;

/// Keeps a mix64 output's low bits: the gram's text::Hash.
constexpr std::uint64_t kHashMask = std::numeric_limits<Hash>::max();

using text::simd::detail::normalizeAvx2;

/// 8-lane util::mix64 (the SplitMix64 finalizer), bit-exact. VPMULLQ
/// (AVX512DQ) does the full 64x64 -> low 64 multiply in one instruction.
[[gnu::always_inline]] inline __m512i mix64x8(__m512i x, __m512i m1,
                                              __m512i m2) {
  x = _mm512_add_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
  x = _mm512_mullo_epi64(x, m1);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
  x = _mm512_mullo_epi64(x, m2);
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/// Per-call hash constants (powers of KarpRabin::kBase mod 2^64).
struct HashConsts {
  std::uint64_t topPow;  // B^{n-1} (out-tap coefficient of the roller)
  explicit HashConsts(std::size_t n) {
    constexpr std::uint64_t B = util::KarpRabin::kBase;
    std::uint64_t p = 1;
    for (std::size_t i = 1; i < n; ++i) p *= B;
    topPow = p;
  }
};

/// x * c mod 2^64 for a full 64-bit x and a splat constant given as
/// 32-bit halves: three PMULUDQ half-products. VPMULLQ computes this in
/// one instruction but with ~15-cycle latency on the bench host — fatal
/// on the loop-carried recurrence chain; the half-product tree is ~8.
[[gnu::always_inline]] inline __m512i mulSplat64(__m512i x, __m512i cLo,
                                                 __m512i cHi) {
  return _mm512_add_epi64(
      _mm512_mul_epu32(x, cLo),
      _mm512_slli_epi64(
          _mm512_add_epi64(_mm512_mul_epu32(x, cHi),
                           _mm512_mul_epu32(_mm512_srli_epi64(x, 32), cLo)),
          32));
}

/// In-place 8x8 transpose of qwords across 8 vectors (three levels:
/// qword unpack, 128-bit block exchange twice).
[[gnu::always_inline]] inline void transpose8x8(__m512i r[kLanes]) {
  const __m512i t0 = _mm512_unpacklo_epi64(r[0], r[1]);
  const __m512i t1 = _mm512_unpackhi_epi64(r[0], r[1]);
  const __m512i t2 = _mm512_unpacklo_epi64(r[2], r[3]);
  const __m512i t3 = _mm512_unpackhi_epi64(r[2], r[3]);
  const __m512i t4 = _mm512_unpacklo_epi64(r[4], r[5]);
  const __m512i t5 = _mm512_unpackhi_epi64(r[4], r[5]);
  const __m512i t6 = _mm512_unpacklo_epi64(r[6], r[7]);
  const __m512i t7 = _mm512_unpackhi_epi64(r[6], r[7]);
  const __m512i u0 = _mm512_shuffle_i64x2(t0, t2, 0x88);
  const __m512i u1 = _mm512_shuffle_i64x2(t1, t3, 0x88);
  const __m512i u2 = _mm512_shuffle_i64x2(t0, t2, 0xdd);
  const __m512i u3 = _mm512_shuffle_i64x2(t1, t3, 0xdd);
  const __m512i u4 = _mm512_shuffle_i64x2(t4, t6, 0x88);
  const __m512i u5 = _mm512_shuffle_i64x2(t5, t7, 0x88);
  const __m512i u6 = _mm512_shuffle_i64x2(t4, t6, 0xdd);
  const __m512i u7 = _mm512_shuffle_i64x2(t5, t7, 0xdd);
  r[0] = _mm512_shuffle_i64x2(u0, u4, 0x88);
  r[1] = _mm512_shuffle_i64x2(u1, u5, 0x88);
  r[2] = _mm512_shuffle_i64x2(u2, u6, 0x88);
  r[3] = _mm512_shuffle_i64x2(u3, u7, 0x88);
  r[4] = _mm512_shuffle_i64x2(u0, u4, 0xdd);
  r[5] = _mm512_shuffle_i64x2(u1, u5, 0xdd);
  r[6] = _mm512_shuffle_i64x2(u2, u6, 0xdd);
  r[7] = _mm512_shuffle_i64x2(u3, u7, 0xdd);
}

/// Hashes `count` grams of length n starting at chars[first], writing the
/// mix64 outputs' text::Hash bits to out, one per 64-bit lane. Bit-exact
/// with the scalar roller.
///
/// Blocked-lane decomposition: lane j owns the CONTIGUOUS gram block
/// [j*per, (j+1)*per), so each lane is its own rolling-hash stream and a
/// step advances all 8 streams by ONE gram each with the plain scalar
/// recurrence, vectorized across lanes:
///
///   H(g+1) = H(g)*B - c[g]*B^n + c[g+n]   (mod 2^64)
///
/// Consecutive-gram lane layouts (a stride-4 or stride-8 block
/// recurrence) pay 7+ byte-tap multiplies per vector
/// because each lane taps a DIFFERENT byte; with blocked lanes a step
/// needs exactly one in-byte and one out-byte per lane. Those bytes are
/// strided in memory, so each group of 8 steps loads one 8-byte run per
/// lane (two VPSHUFB source vectors, in-taps and out-taps) and a single
/// VPADDQ walks the selector through the group. Outputs transpose back
/// to gram order once per group via an 8x8 qword transpose.
///
/// Multiplies on the loop-carried chain use PMULUDQ half-product trees
/// (mulSplat64) — ~8 cycles of chain per step versus ~15 for VPMULLQ.
/// The out-tap product and the mix64 are off-chain.
void hashRoundAvx512(const unsigned char* chars, std::size_t first,
                     std::size_t count, std::size_t n, const HashConsts& hc,
                     std::uint64_t* out) {
  if (count == 0) return;
  const char* base = reinterpret_cast<const char*>(chars) + first;
  constexpr std::uint64_t B = util::KarpRabin::kBase;

  // Grams each lane owns. Tiny rounds take the plain scalar roller.
  const std::size_t per = count / kLanes;
  if (per < kLanes) {
    util::KarpRabin roller(n);
    std::uint64_t h = roller.init(std::string_view(base, n));
    out[0] = util::mix64(h) & kHashMask;
    for (std::size_t k = 1; k < count; ++k) {
      h -= hc.topPow * chars[first + k - 1];
      h = h * B + chars[first + k - 1 + n];
      out[k] = util::mix64(h) & kHashMask;
    }
    return;
  }

  const std::uint64_t bn = hc.topPow * B;  // B^n
  const __m512i vM1 =
      _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m512i vM2 =
      _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL));
  const __m512i vBLo = _mm512_set1_epi64(static_cast<long long>(B & 0xFFFFFFFFULL));
  const __m512i vBHi = _mm512_set1_epi64(static_cast<long long>(B >> 32));
  const __m512i vBnLo =
      _mm512_set1_epi64(static_cast<long long>(bn & 0xFFFFFFFFULL));
  const __m512i vBnHi = _mm512_set1_epi64(static_cast<long long>(bn >> 32));
  const __m512i vMask = _mm512_set1_epi64(static_cast<long long>(kHashMask));
  // VPSHUFB selector for "byte g of each qword, zero-extended": byte 0 of
  // qword j picks byte g (within the 128-bit lane: 8g for odd qwords),
  // all other bytes zero via the high bit. Adding 1 per qword advances g
  // (g stays < 8, so the add never carries into the 0x80 filler bytes).
  const __m512i vSel0 = _mm512_set_epi64(
      static_cast<long long>(0x8080808080808008ULL),
      static_cast<long long>(0x8080808080808000ULL),
      static_cast<long long>(0x8080808080808008ULL),
      static_cast<long long>(0x8080808080808000ULL),
      static_cast<long long>(0x8080808080808008ULL),
      static_cast<long long>(0x8080808080808000ULL),
      static_cast<long long>(0x8080808080808008ULL),
      static_cast<long long>(0x8080808080808000ULL));
  const __m512i vOne = _mm512_set1_epi64(1);

  const auto* ub = reinterpret_cast<const unsigned char*>(base);
  auto load8 = [](const unsigned char* p) __attribute__((always_inline)) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return static_cast<long long>(v);
  };
  // One 8-byte run per lane, lane j's bytes at p + j*per: qword j of the
  // VPSHUFB source. The last group's in-tap run reads at most 6 bytes
  // past the final gram's last character — inside batchChars_'s 32-byte
  // slack — and those bytes only reach steps past the loop bound.
  auto gather8 = [&](const unsigned char* p) __attribute__((always_inline)) {
    return _mm512_set_epi64(load8(p + 7 * per), load8(p + 6 * per),
                            load8(p + 5 * per), load8(p + 4 * per),
                            load8(p + 3 * per), load8(p + 2 * per),
                            load8(p + 1 * per), load8(p));
  };

  // Seed each lane's hash over its block's first gram, scalar.
  alignas(64) std::uint64_t seed[kLanes];
  {
    util::KarpRabin roller(n);
    for (std::size_t j = 0; j < kLanes; ++j) {
      seed[j] = roller.init(std::string_view(base + j * per, n));
    }
  }
  __m512i H = _mm512_load_si512(reinterpret_cast<const __m512i*>(seed));

  const std::size_t groups = per / kLanes;
  for (std::size_t t = 0; t < groups; ++t) {
    const unsigned char* pc = ub + t * kLanes;
    const __m512i vOut = gather8(pc);
    const __m512i vIn = gather8(pc + n);
    __m512i sel = vSel0;
    __m512i R[kLanes];
#pragma GCC unroll 8
    for (std::size_t g = 0; g < kLanes; ++g) {
      // Emit the CURRENT gram, then advance past it: step g's taps are
      // gram t*8+g's leading byte and the byte n past it.
      R[g] = _mm512_and_si512(mix64x8(H, vM1, vM2), vMask);
      const __m512i cO = _mm512_shuffle_epi8(vOut, sel);
      const __m512i cI = _mm512_shuffle_epi8(vIn, sel);
      sel = _mm512_add_epi64(sel, vOne);
      // cO < 2^8, so its out-tap product needs only the two cO*half
      // PMULUDQs; it joins the chain in one subtract.
      const __m512i tap = _mm512_sub_epi64(
          cI, _mm512_add_epi64(
                  _mm512_mul_epu32(cO, vBnLo),
                  _mm512_slli_epi64(_mm512_mul_epu32(cO, vBnHi), 32)));
      H = _mm512_add_epi64(mulSplat64(H, vBLo, vBHi), tap);
    }
    transpose8x8(R);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) {
      _mm512_storeu_si512(
          reinterpret_cast<__m512i*>(out + j * per + t * kLanes), R[j]);
    }
  }

  // Ragged block ends (per % 8 steps): finish each lane with the scalar
  // recurrence, seeded from the vector state (H holds each lane's hash
  // of gram groups*8).
  alignas(64) std::uint64_t hs[kLanes];
  _mm512_store_si512(reinterpret_cast<__m512i*>(hs), H);
  for (std::size_t j = 0; j < kLanes; ++j) {
    std::uint64_t h = hs[j];
    for (std::size_t k = groups * kLanes; k < per; ++k) {
      const std::size_t g = j * per + k;
      out[g] = util::mix64(h) & kHashMask;
      h -= hc.topPow * chars[first + g];
      h = h * B + chars[first + g + n];
    }
  }

  // Tail grams [8*per, count): plain scalar rolling.
  std::size_t k = kLanes * per;
  if (k < count) {
    util::KarpRabin roller(n);
    std::uint64_t h = roller.init(std::string_view(base + k, n));
    out[k] = util::mix64(h) & kHashMask;
    for (++k; k < count; ++k) {
      h -= hc.topPow * chars[first + k - 1];
      h = h * B + chars[first + k - 1 + n];
      out[k] = util::mix64(h) & kHashMask;
    }
  }
}

/// In-register winnow of whole w-gram blocks; everything else — the head
/// grams up to the next block boundary, the tail after the last whole
/// block, any w that is not a multiple of 8 — goes through the scalar
/// consumeHashes. Bit-exact: identical packed keys
/// ((hash << 32) | ~gram), identical van Herk / Gil-Werman block
/// decomposition, identical low-half dedup.
///
/// Per block (w/8 vectors of 8 grams):
///   keys    VPSLLQ | a decrementing inverted-index ramp;
///   prefix  running block minimum per lane: three VALIGNQ+VPMINUQ
///           log-steps (shifting in ~0, the min identity) plus a
///           broadcast carry between vectors;
///   winner  VPMINUQ against the previous block's suffix minima, loaded
///           from suffixMin_[pos + 1] (slot w holds ~0, so the block's
///           last window needs no special case);
///   dedup   compare each winner's low half against its predecessor
///           (lane-shifted with a carry from the previous vector) and
///           record the compare mask; the drain walks the set bits;
///   suffix  reverse log-step scan of this block's keys, stored back to
///           suffixMin_ for the next block — the same array the scalar
///           path maintains, which is what lets the two paths interleave.
void winnowRoundAvx512(BatchPipeline& bp, std::size_t count) {
  const std::size_t w = bp.w;
  if (w < kLanes || w % kLanes != 0 || w > 64) {
    bp.consumeHashes(count);
    return;
  }

  // Scalar head: to the end of the current block — or of the FIRST block,
  // whose predecessor suffix minima don't exist yet. consumeHashes leaves
  // r == 0 and pfx == ~0 at every block boundary, exactly the state the
  // vector path assumes and preserves.
  std::size_t k = 0;
  std::size_t head;
  if (bp.gramCount < w) {
    head = std::min(count, w - bp.gramCount);
  } else {
    const std::size_t r = bp.gramCount % w;
    head = r == 0 ? 0 : std::min(count, w - r);
  }
  if (head > 0) {
    bp.consumeHashes(head);
    k = head;
  }

  const std::size_t blocks =
      (bp.gramCount >= w && bp.gramCount % w == 0) ? (count - k) / w : 0;
  if (blocks > 0) {
    const std::uint64_t* hashes = bp.hashOut() + k;
    std::uint64_t* sfx = bp.suffixMinData();
    std::uint64_t* winOut = bp.winKeyOut();
    const std::size_t vb = w / kLanes;

    const __m512i vOnes = _mm512_set1_epi64(-1);
    const __m512i vSeven = _mm512_set1_epi64(7);
    const __m512i vEight = _mm512_set1_epi64(8);
    const __m512i vZero = _mm512_setzero_si512();
    // Winners are stored RAW, one vector per 8 grams, with the per-vector
    // dedup results accumulated as mask bytes; the drain walks the set
    // bits. A compress-store with a running output cursor would put a
    // kmov + popcnt + add scalar chain on every vector's store address.
    unsigned char masks[BatchPipeline::kChunkChars / kLanes];
    // Winner predecessors carry across vectors: lane 7 of prevWin is the
    // previous winner. Seeding all lanes with lastSelected's key encoding
    // puts it in lane 7.
    __m512i prevWin = _mm512_set1_epi64(static_cast<long long>(
        0xFFFFFFFFULL - static_cast<std::uint32_t>(bp.lastSelected)));
    // Inverted-index ramp for the next 8 grams; decrements by 8 per
    // vector (gram indices ascend, inverted indices descend).
    __m512i vInv = _mm512_sub_epi64(
        _mm512_set1_epi64(static_cast<long long>(
            0xFFFFFFFFULL - static_cast<std::uint32_t>(bp.gramCount))),
        _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));

    // The block loop is templated on the vectors-per-block count so the
    // previous block's suffix minima live in registers (S[VB]); they are
    // only materialised into suffixMin_ once, after the last block, for
    // the scalar path's benefit.
    auto blockRun = [&]<std::size_t VB>() __attribute__((noinline)) {
      __m512i S[VB];
      for (std::size_t v = 0; v < VB; ++v) {
        S[v] = _mm512_loadu_si512(
            reinterpret_cast<const __m512i*>(sfx + v * kLanes));
      }
      // Running cursors: indexing by the block number left gcc with two
      // IMULs and ~40 address-arithmetic scalar ops per 16-gram block.
      const std::uint64_t* hp = hashes;
      std::uint64_t* wp = winOut;
      unsigned char* mp = masks;
      for (std::size_t b = 0; b < blocks; ++b) {
        // Keys and their per-vector inclusive prefix-min scans (shift
        // lanes up by 1/2/4 via VALIGNQ over [ones | P], the min
        // identity filling), all VB scans independent.
        __m512i K[VB], F[VB];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < VB; ++v) {
          const __m512i h = _mm512_loadu_si512(
              reinterpret_cast<const __m512i*>(hp + v * kLanes));
          K[v] = _mm512_or_si512(_mm512_slli_epi64(h, 32), vInv);
          vInv = _mm512_sub_epi64(vInv, vEight);
          __m512i P = K[v];
          P = _mm512_min_epu64(P, _mm512_alignr_epi64(P, vOnes, 7));
          P = _mm512_min_epu64(P, _mm512_alignr_epi64(P, vOnes, 6));
          P = _mm512_min_epu64(P, _mm512_alignr_epi64(P, vOnes, 4));
          F[v] = P;
        }
        // Carry the running block minimum across vectors (lane 7 of the
        // previous full prefix), then the winner: min with the previous
        // block's suffix minima one lane ahead — S[VB] would be the ~0
        // sentinel, so the last window needs no special case.
#pragma GCC unroll 8
        for (std::size_t v = 1; v < VB; ++v) {
          F[v] = _mm512_min_epu64(F[v],
                                  _mm512_permutexvar_epi64(vSeven, F[v - 1]));
        }
        __m512i Wv[VB];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < VB; ++v) {
          const __m512i Sn = v + 1 < VB
                                 ? _mm512_alignr_epi64(S[v + 1], S[v], 1)
                                 : _mm512_alignr_epi64(vOnes, S[v], 1);
          Wv[v] = _mm512_min_epu64(F[v], Sn);
        }
        // Dedup on the low half (gram identity): winner changed iff the
        // selected gram changed. prev[0] comes from the previous vector.
#pragma GCC unroll 8
        for (std::size_t v = 0; v < VB; ++v) {
          const __m512i prev = _mm512_alignr_epi64(
              Wv[v], v == 0 ? prevWin : Wv[v - 1], 7);
          mp[v] = _mm512_cmpneq_epu64_mask(
              _mm512_slli_epi64(Wv[v], 32), _mm512_slli_epi64(prev, 32));
          _mm512_storeu_si512(
              reinterpret_cast<__m512i*>(wp + v * kLanes), Wv[v]);
        }
        prevWin = Wv[VB - 1];
        // This block's suffix minima become the next block's lookups.
        // Reverse inclusive scan (shift lanes down by 1/2/4), with a
        // lane-0 broadcast carry from the later vector.
        __m512i carryS = vOnes;
        for (std::size_t v = VB; v-- > 0;) {
          __m512i S2 = K[v];
          S2 = _mm512_min_epu64(S2, _mm512_alignr_epi64(vOnes, S2, 1));
          S2 = _mm512_min_epu64(S2, _mm512_alignr_epi64(vOnes, S2, 2));
          S2 = _mm512_min_epu64(S2, _mm512_alignr_epi64(vOnes, S2, 4));
          S2 = _mm512_min_epu64(S2, carryS);
          S[v] = S2;
          carryS = _mm512_permutexvar_epi64(vZero, S2);
        }
        hp += w;
        wp += w;
        mp += VB;
      }
      for (std::size_t v = 0; v < VB; ++v) {
        _mm512_storeu_si512(reinterpret_cast<__m512i*>(sfx + v * kLanes),
                            S[v]);
      }
    };
    switch (vb) {
      case 1: blockRun.template operator()<1>(); break;
      case 2: blockRun.template operator()<2>(); break;
      case 3: blockRun.template operator()<3>(); break;
      case 4: blockRun.template operator()<4>(); break;
      case 5: blockRun.template operator()<5>(); break;
      case 6: blockRun.template operator()<6>(); break;
      case 7: blockRun.template operator()<7>(); break;
      default: blockRun.template operator()<8>(); break;  // w <= 64
    }

    // Write the winnow state back: blocks end exactly at a boundary, so
    // pfx == ~0 and r == 0 still hold and were never touched.
    bp.gramCount += blocks * w;
    alignas(64) std::uint64_t lastLanes[kLanes];
    _mm512_store_si512(reinterpret_cast<__m512i*>(lastLanes), prevWin);
    bp.lastSelected =
        0xFFFFFFFFULL - static_cast<std::uint32_t>(lastLanes[kLanes - 1]);

    // Drain pass, identical to consumeHashes': materialise the distinct
    // winners via the carryover offset buffer.
    const std::uint32_t* offs = bp.offsBase();
    const std::size_t base = bp.charBase;
    const std::size_t vecs = blocks * vb;
    // The mask bytes form one contiguous bitmask over the blocks' grams
    // (byte j bit i == gram j*8 + i), so drain a qword — 64 grams — per
    // load: with ~one pick per window the per-byte loop entry branch was
    // nearly always mispredicted, a qword's set-bit loop runs long
    // enough to predict.
    std::size_t j = 0;
    for (; j + 8 <= vecs; j += 8) {
      std::uint64_t m;
      std::memcpy(&m, masks + j, sizeof m);
      while (m != 0) {
        const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
        m &= m - 1;
        const std::uint64_t key = winOut[j * kLanes + i];
        const std::size_t pick =
            0xFFFFFFFFULL - static_cast<std::uint32_t>(key);
        bp.pushSelected(static_cast<Hash>(key >> 32), offs[pick - base]);
      }
    }
    for (; j < vecs; ++j) {
      unsigned m = masks[j];
      while (m != 0) {
        const unsigned i = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        const std::uint64_t key = winOut[j * kLanes + i];
        const std::size_t pick =
            0xFFFFFFFFULL - static_cast<std::uint32_t>(key);
        bp.pushSelected(static_cast<Hash>(key >> 32), offs[pick - base]);
      }
    }
    k += blocks * w;
  }

  if (k < count) bp.consumeHashes(count - k, k);
}

}  // namespace

bool selectGramsAvx512(std::string_view input, const FingerprintConfig& config,
                       FingerprintWorkspace& ws) {
  const std::size_t n = config.ngramChars;
  if (input.size() < config.windowChars) return false;
  if (n == 0) return false;

  BatchPipeline bp(ws);
  if (!bp.init(config)) {
    return text::detail::selectGramsScalar(input, config, ws);
  }
  const HashConsts hc(n);

  const auto* bytes = reinterpret_cast<const unsigned char*>(input.data());
  for (std::size_t pos = 0; pos < input.size();
       pos += BatchPipeline::kChunkChars) {
    const std::size_t len =
        std::min(BatchPipeline::kChunkChars, input.size() - pos);
    const std::size_t added =
        normalizeAvx2(bytes + pos, len, pos, bp.charAppend(), bp.offAppend());
    const BatchPipeline::Round round = bp.beginRound(added);
    if (round.grams > 0) {
      hashRoundAvx512(bp.charsBase(), round.firstGramLocal, round.grams, n,
                      hc, bp.hashOut());
      winnowRoundAvx512(bp, round.grams);
    }
    bp.endRound();
  }
  return bp.finish(config);
}

}  // namespace bf::text::simd

#endif  // BF_TEXT_SIMD_X86
