// Fused fingerprint kernel — the allocation-lean fast path behind
// fingerprintText (paper S4.1, steps S1-S4 in one pass).
//
// The reference pipeline (normalizer.h → ngram_hasher.h → winnower.h)
// materialises three throwaway buffers per call: the normalized string +
// offset map, the full n-gram hash sequence (8 bytes per character), and
// the winnowing deque. The fused kernel streams the input once instead:
// each byte is normalized via a 256-entry table, rolled into the
// Karp-Rabin hash, and winnowed with a branchless block-minimum (van Herk
// / Gil-Werman over packed (hash, ~index) keys: a 32-bit text::Hash and a
// 32-bit gram index make one 64-bit key, so the minimum key is robust
// winnowing's pick). The selected hash set is radix-sorted, so the only
// allocations that survive a call are the two vectors owned by the
// returned Fingerprint (~2/(w+1) of the input under winnowing). All
// scratch lives in a reusable FingerprintWorkspace, typically
// thread-local, so steady-state fingerprinting performs no scratch
// allocation at all.
//
// fingerprintTextFused is a runtime dispatcher: on x86-64 hosts with
// AVX-512 it routes to the batch SIMD kernel in src/text/simd/ (cpuid
// selection modeled on util/crc32c; see text/simd/kernel.h), falling back
// to the portable scalar kernel fingerprintTextFusedScalar everywhere
// else. Both dispatch targets are differentially tested to be
// byte-identical (hashes AND original-offset positions) to the staged
// reference in tests/text/fused_kernel_test and tests/text/simd_kernel_test.
//
// refingerprint serves the live-editing case (paper S5, S6.2), where each
// keystroke re-checks a text that differs from the last one by a few
// bytes: it runs the kernel on the edit's neighbourhood only and splices
// the result into the previous fingerprint.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "text/fingerprint.h"

namespace bf::text {

class FingerprintWorkspace;
struct SharedEdges;

namespace simd {
struct BatchPipeline;
}  // namespace simd

namespace detail {
/// The kernel without its epilogue: normalizes, hashes and winnows
/// `input` on the dispatched tier (AVX-512 → scalar), leaving the picks
/// in `ws` in position order with original-offset positions. Returns
/// false, leaving the pick buffer unspecified, when there are none.
/// fingerprintTextFused is selectGrams + finalizeSelectedFingerprint.
[[nodiscard]] bool selectGrams(std::string_view input,
                               const FingerprintConfig& config,
                               FingerprintWorkspace& ws);
/// selectGrams pinned to the portable scalar kernel.
[[nodiscard]] bool selectGramsScalar(std::string_view input,
                                     const FingerprintConfig& config,
                                     FingerprintWorkspace& ws);
/// Shared epilogue: turns the workspace's winnow-selected grams into a
/// Fingerprint (position-ordered grams + radix-sorted deduplicated
/// hash set). Used after either kernel tier and after a splice.
[[nodiscard]] Fingerprint finalizeSelectedFingerprint(
    FingerprintWorkspace& ws);
}  // namespace detail

/// Reusable scratch for fingerprintTextFused. Buffers grow to fit the
/// largest (ngramChars, windowChars) configuration seen and are then
/// reused allocation-free; the per-call content is reset by the kernel.
/// NOT thread-safe: use one workspace per thread (see
/// threadLocalFingerprintWorkspace()).
class FingerprintWorkspace {
 public:
  FingerprintWorkspace() = default;
  FingerprintWorkspace(const FingerprintWorkspace&) = delete;
  FingerprintWorkspace& operator=(const FingerprintWorkspace&) = delete;

  /// Capacity currently held by the scratch buffers, in bytes (telemetry /
  /// tests only). The SIMD batch buffers are chunk-bounded (the batch
  /// kernels process the input in fixed-size rounds), so this stays O(n +
  /// w + chunk) — never O(input).
  [[nodiscard]] std::size_t scratchBytes() const noexcept {
    return chars_.capacity() * sizeof(char) +
           charOff_.capacity() * sizeof(std::uint32_t) +
           blockKeys_.capacity() * sizeof(std::uint64_t) +
           suffixMin_.capacity() * sizeof(std::uint64_t) +
           sortTmp_.capacity() * sizeof(Hash) +
           selected_.capacity() * sizeof(HashedGram) +
           batchChars_.capacity() * sizeof(unsigned char) +
           batchOff_.capacity() * sizeof(std::uint32_t) +
           batchHashes_.capacity() * sizeof(std::uint64_t) +
           batchWinKeys_.capacity() * sizeof(std::uint64_t);
  }

 private:
  friend bool detail::selectGramsScalar(std::string_view input,
                                        const FingerprintConfig& config,
                                        FingerprintWorkspace& ws);
  friend Fingerprint detail::finalizeSelectedFingerprint(
      FingerprintWorkspace& ws);
  friend Fingerprint refingerprint(std::string_view oldText,
                                   const Fingerprint& oldFp,
                                   std::string_view newText,
                                   const FingerprintConfig& config,
                                   FingerprintWorkspace& ws,
                                   SharedEdges shared);
  friend struct simd::BatchPipeline;

  /// Sizes the character ring and the winnow scratch for n-gram length
  /// `n` and window `w`, and resets per-call state.
  void prepare(std::size_t n, std::size_t w);

  // Ring of the last n + w normalized characters (and their original byte
  // offsets), indexed by normalized position & charMask_. Sized past the
  // n-gram lookback so a winnow pick — up to w - 1 grams behind the
  // current one — can read its original start offset directly.
  std::vector<char> chars_;
  std::vector<std::uint32_t> charOff_;
  std::size_t charMask_ = 0;

  // Scratch for the branchless block-minimum winnow (see kernel
  // comments): one w-gram block of packed (hash, ~index) keys and its
  // suffix minima.
  std::vector<std::uint64_t> blockKeys_;
  std::vector<std::uint64_t> suffixMin_;

  // Ping-pong buffer pair for the epilogue's radix sort of the selected
  // hash set.
  std::vector<Hash> sortTmp_;

  // Winnow-selected grams (original-offset positions). The only buffer
  // whose size scales with the fingerprint, not the input.
  std::vector<HashedGram> selected_;

  // SIMD batch-pipeline scratch (src/text/simd/batch_pipeline.h): one
  // chunk of normalized characters with a small inter-chunk carryover,
  // their original byte offsets, the chunk's gram hashes (one 64-bit lane
  // each, as the vector hash writes them), and the packed winnow's
  // per-window winner keys.
  // Chunk-bounded, reused across rounds and calls.
  std::vector<unsigned char> batchChars_;
  std::vector<std::uint32_t> batchOff_;
  std::vector<std::uint64_t> batchHashes_;
  std::vector<std::uint64_t> batchWinKeys_;
};

/// Computes the winnowed fingerprint of `input` under `config` in a single
/// streaming pass using `ws` for all scratch. Dispatches to the best
/// kernel the host supports (AVX-512 → scalar; see text/simd/kernel.h
/// for forcing and introspection). Both targets produce a fingerprint
/// byte-identical to the reference
/// fingerprintTextReference (same hashes, same original-offset positions,
/// same tie-breaks).
[[nodiscard]] Fingerprint fingerprintTextFused(std::string_view input,
                                               const FingerprintConfig& config,
                                               FingerprintWorkspace& ws);

/// The portable scalar kernel — fingerprintTextFused's fallback dispatch
/// target, and the baseline the SIMD kernel is differentially tested
/// against. Exposed so tests and benches can pin the scalar path
/// regardless of host capabilities.
[[nodiscard]] Fingerprint fingerprintTextFusedScalar(
    std::string_view input, const FingerprintConfig& config,
    FingerprintWorkspace& ws);

/// Bytes two texts share at their ends: the longest common prefix, then
/// the longest common suffix of what the prefix leaves of each (so
/// prefix + suffix never exceeds the shorter text).
struct SharedEdges {
  std::size_t prefix = 0;
  std::size_t suffix = 0;
};
[[nodiscard]] SharedEdges sharedEdges(std::string_view a,
                                      std::string_view b) noexcept;

/// fingerprintTextFused(newText, config, ws), computed from an earlier
/// text and its fingerprint: `oldFp` must be fingerprintTextFused(oldText,
/// config) (or this function's result for oldText). Winnowing is local,
/// so only the bytes between the texts' shared prefix and suffix, widened
/// by one window of kept characters on each side, go through the kernel;
/// the picks outside that slice are the old ones, shifted past the edit.
/// Runs the full kernel when the slice would be the whole text. The result
/// is identical to the full kernel's: grams, positions and hash set
/// (tests/text/refingerprint_test.cpp).
[[nodiscard]] Fingerprint refingerprint(std::string_view oldText,
                                        const Fingerprint& oldFp,
                                        std::string_view newText,
                                        const FingerprintConfig& config,
                                        FingerprintWorkspace& ws);
/// refingerprint(oldText, oldFp, newText, config, ws) for a caller that
/// already holds `shared` == sharedEdges(oldText, newText).
[[nodiscard]] Fingerprint refingerprint(std::string_view oldText,
                                        const Fingerprint& oldFp,
                                        std::string_view newText,
                                        const FingerprintConfig& config,
                                        FingerprintWorkspace& ws,
                                        SharedEdges shared);

/// The calling thread's workspace. Lets call sites that cannot thread a
/// workspace through (FlowTracker's public fingerprint paths) still reuse
/// scratch across calls.
[[nodiscard]] FingerprintWorkspace& threadLocalFingerprintWorkspace();

}  // namespace bf::text
