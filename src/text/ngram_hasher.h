// n-gram hashing — step S2 of the fingerprinting pipeline (paper S4.1).
//
// Hashes every character n-gram of a normalized text with a Karp-Rabin
// rolling hash, so the whole pass is O(length). Each gram's hash is the
// low 32 bits of the mixed rolling value (text::Hash, the paper's 32-bit
// width). Part of the staged reference pipeline the fused kernel is
// differentially tested against.
#pragma once

#include <cstddef>
#include <vector>

#include "text/fingerprint.h"
#include "text/normalizer.h"

namespace bf::text {

/// Hashes every n-gram of length `ngramChars` in `normalized`; each gram's
/// pos is its start index in the normalized text. Returns an empty vector
/// when the text is shorter than one n-gram.
[[nodiscard]] std::vector<HashedGram> hashNgrams(
    const NormalizedText& normalized, std::size_t ngramChars);

}  // namespace bf::text
