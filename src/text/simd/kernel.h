// Runtime-dispatched SIMD fingerprint kernel.
//
// Batch implementation of the fused normalize → Karp-Rabin → winnow
// pipeline (text/fingerprint_kernel.h), in two tiers:
//
//   kAvx512 AVX-512 F/DQ/BW/VL + AVX2/BMI2: 32-byte vector normalization
//           with PEXT byte compaction (normalize_avx2.h), 8-lane
//           block-evaluated rolling hashes, in-register block winnowing
//           (VPMINUQ scans + compare-mask dedup).
//   kScalar the portable fused kernel (fingerprintTextFusedScalar).
//
// A vector tier stays only while it beats scalar by at least 1.5x at the
// event sizes users send (DESIGN.md §15; SSE4.2 and AVX2 did not).
//
// Selection is cpuid-based and resolved once per process, modeled on
// util/crc32c's SSE4.2 dispatch. Overrides, strongest first:
//
//   1. setKernelTierOverrideForTest()      (tests/benches, reversible)
//   2. BF_FORCE_SCALAR_KERNEL=1 in the env (CI fallback coverage on any
//                                           host)
//   3. cpuid: AVX-512 → scalar
//
// The resolved tier is exported as the `bf_kernel_dispatch` gauge
// (0 = scalar, 3 = avx512) so a deployment can verify which kernel
// actually dispatched (README "Troubleshooting").
//
// Both tiers are bit-exact: the same normalization classification, the
// same Karp-Rabin polynomial mod 2^64, the same mix64 finalizer, the same
// robust-winnow tie-breaks. fingerprintTextReference remains the oracle
// for both (tests/text/simd_kernel_test.cpp sweeps tiers × lengths ×
// alignments × window shapes × UTF-8 content, plus tie-heavy periodic
// text).
#pragma once

#include <string_view>

#include "text/fingerprint.h"

namespace bf::text {
class FingerprintWorkspace;
}  // namespace bf::text

namespace bf::text::simd {

/// Dispatch tiers, weakest to strongest. Values are stable: they are the
/// `bf_kernel_dispatch` gauge values (1 and 2 were the removed SSE4.2 and
/// AVX2 tiers and stay unused).
enum class KernelTier : int {
  kScalar = 0,
  kAvx512 = 3,
};

/// Human-readable tier name ("scalar" / "avx512").
[[nodiscard]] const char* kernelTierName(KernelTier tier) noexcept;

/// True when this build AND this host can execute `tier` (compile-time
/// x86-64 gate plus cpuid). kScalar is always supported.
[[nodiscard]] bool kernelTierSupported(KernelTier tier) noexcept;

/// The tier fingerprintTextFused dispatches to right now: the test
/// override if set, else the once-resolved env/cpuid choice.
[[nodiscard]] KernelTier activeKernelTier() noexcept;

/// Forces dispatch to `tier` for this process (tests/benches sweeping
/// dispatch targets). Returns false — leaving dispatch unchanged — when
/// the tier is not supported here. Pass restoreAutoKernelTier() to go
/// back to env/cpuid selection.
bool setKernelTierOverrideForTest(KernelTier tier) noexcept;
void restoreAutoKernelTier() noexcept;

namespace detail {
/// Pure selection policy, unit-testable without touching cpuid or the
/// environment: BF_FORCE_SCALAR_KERNEL beats everything, then AVX-512
/// wins when the host has it.
[[nodiscard]] KernelTier chooseKernelTier(bool forceScalar,
                                          bool haveAvx512) noexcept;
}  // namespace detail

#if defined(BF_TEXT_SIMD_X86)
/// The batch kernel, as text::detail::selectGrams's AVX-512 target: leaves
/// `input`'s winnow picks in `ws` and returns false when there are none.
/// Only callable when kAvx512 is supported (selectGrams guarantees this
/// via dispatch; direct callers must check kernelTierSupported
/// themselves). Compiled only on x86-64 GNU/Clang builds.
[[nodiscard]] bool selectGramsAvx512(std::string_view input,
                                     const FingerprintConfig& config,
                                     FingerprintWorkspace& ws);
#endif  // BF_TEXT_SIMD_X86

}  // namespace bf::text::simd
