// Scalar machinery of the AVX-512 batch kernel (kernel.h).
//
// The vector kernel decomposes fingerprinting into rounds over a fixed
// chunk of input:
//
//   1. vector-normalize a chunk of input bytes, compacting the kept
//      characters (and their original byte offsets) into flat buffers;
//   2. vector-evaluate the Karp-Rabin hashes of every gram completed by
//      the chunk (block recurrence, bit-exact mod 2^64), writing each
//      mix64 output's low 32 bits (the gram's text::Hash) to a flat
//      buffer of 64-bit lanes;
//   3. winnow the hash buffer with EXACTLY the scalar kernel's logic:
//      packed (hash, ~index) keys and van Herk / Gil-Werman block minima.
//
// The scalar half of step 3 plus all the chunk/carry bookkeeping lives
// here, compiled WITHOUT vector flags; the kernel implements steps 1-2
// and the whole-block part of step 3. Chunking bounds the flat buffers by
// the chunk size (not the input), preserving the workspace's O(n + w +
// chunk) scratch guarantee, and keeps the hash buffer hot in cache for
// the winnow pass.
//
// An inter-round carryover of the last n + w normalized characters keeps
// every index a later step needs addressable: the hash recurrence looks
// back n characters, and a winnow pick — up to w - 1 grams behind the
// newest — needs its gram's original start offset.
#pragma once

#include <cstdint>
#include <string_view>

#include "text/fingerprint_kernel.h"

namespace bf::text::simd {

struct BatchPipeline {
  /// Input bytes consumed per round; also bounds the normalized chars a
  /// round can append. Large enough to amortise per-round scalar work
  /// (hash-lane reseeding), small enough that chars + offsets + hashes
  /// (~13 bytes/char) stay cache-resident and scratch stays input-independent.
  static constexpr std::size_t kChunkChars = 8192;

  explicit BatchPipeline(FingerprintWorkspace& workspace) : ws(workspace) {}

  FingerprintWorkspace& ws;
  std::size_t n = 0;             ///< gram length
  std::size_t w = 0;             ///< window, in hashes

  // Winnow state, carried across rounds (mirrors the scalar kernel).
  std::uint64_t pfx = ~0ULL;
  std::size_t r = 0;
  std::size_t lastSelected = static_cast<std::size_t>(-1);

  std::size_t gramCount = 0;   ///< grams winnowed so far (global index of next)
  std::size_t normTotal = 0;   ///< normalized chars seen so far
  std::size_t carry = 0;       ///< chars retained at the buffer front
  std::size_t carryNeed = 0;   ///< n + w
  std::size_t charBase = 0;    ///< global char index of batchChars_[0]
  std::size_t validChars = 0;  ///< carry + this round's appended chars

  /// Sizes the workspace buffers and resets per-call state. Returns false
  /// when the configuration does not fit the chunked layout (gigantic
  /// n + w) — the caller then falls back to the scalar kernel.
  bool init(const FingerprintConfig& config);

  /// Append cursors for the normalization step: the kernel writes up to
  /// kChunkChars new chars/offsets here (plus up to 32 bytes of vector
  /// overwrite slack, which the buffers reserve).
  [[nodiscard]] unsigned char* charAppend() noexcept {
    return ws.batchChars_.data() + carry;
  }
  [[nodiscard]] std::uint32_t* offAppend() noexcept {
    return ws.batchOff_.data() + carry;
  }
  /// The round's hash output buffer (capacity kChunkChars), one
  /// text::Hash per 64-bit lane.
  [[nodiscard]] std::uint64_t* hashOut() noexcept {
    return ws.batchHashes_.data();
  }
  /// Base of the normalized-character buffer (Round::firstGramLocal
  /// indexes into this).
  [[nodiscard]] const unsigned char* charsBase() const noexcept {
    return ws.batchChars_.data();
  }

  // Winnow-state views for a kernel that vectorizes whole-block
  // winnowing itself (the AVX-512 tier) and interleaves with
  // consumeHashes. suffixMinData() has w + 1 slots (slot w is the ~0
  // sentinel); winKeyOut() holds one raw winner key per gram, worst
  // case; pushSelected appends a drained distinct pick.
  [[nodiscard]] std::uint64_t* suffixMinData() noexcept {
    return ws.suffixMin_.data();
  }
  [[nodiscard]] std::uint64_t* winKeyOut() noexcept {
    return ws.batchWinKeys_.data();
  }
  [[nodiscard]] const std::uint32_t* offsBase() const noexcept {
    return ws.batchOff_.data();
  }
  void pushSelected(Hash hash, std::uint32_t origPos) {
    ws.selected_.push_back({hash, origPos});
  }

  /// Registers `added` freshly-appended normalized chars and returns the
  /// round's hash work: how many new grams are completed, and the LOCAL
  /// index (into batchChars_) of the first one's starting character.
  struct Round {
    std::size_t grams = 0;
    std::size_t firstGramLocal = 0;
  };
  [[nodiscard]] Round beginRound(std::size_t added) noexcept;

  /// Winnows `count` hashes from hashOut() + from — they belong to grams
  /// [gramCount, gramCount + count) — with the scalar kernel's exact
  /// logic and tie-breaks. `from` lets a kernel that winnows part of a
  /// round itself (the AVX-512 tier vectorizes whole-block winnowing)
  /// hand the scalar path the head/tail remainder without copying.
  void consumeHashes(std::size_t count, std::size_t from = 0);

  /// Slides the carryover window after a round's hashes are consumed.
  void endRound() noexcept;

  /// True when the input yielded picks, applying the same short-input
  /// guards as the scalar kernel; the picks stay in the workspace for the
  /// shared epilogue (or a splice).
  [[nodiscard]] bool finish(const FingerprintConfig& config) const;
};

}  // namespace bf::text::simd
