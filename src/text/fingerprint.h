// Fingerprint: the winnowed hash set of a text segment (paper S4.1).
//
// A fingerprint is "a set of hashes carefully chosen from particular
// passages in the paragraph". We store both the position-ordered selected
// grams (for disclosure attribution) and a sorted unique hash vector (for
// the set operations in the disclosure metrics, S4.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bf::text {

/// A fingerprint hash. The paper evaluates "32-bit hashes over n-grams of
/// 15 characters with a window size of 30 characters" (S6.1); this alias is
/// the one place that width is stated, from the kernels to DBhash.
using Hash = std::uint32_t;

/// One hashed n-gram: its hash and the index of the n-gram's first
/// character (in the normalized text while hashing; an original byte
/// offset once it is part of a Fingerprint).
struct HashedGram {
  Hash hash;
  std::uint32_t pos;
  bool operator==(const HashedGram&) const = default;
};

/// Configuration of the fingerprinting pipeline. Paper defaults (S6.1).
struct FingerprintConfig {
  /// Noise threshold: matches shorter than this many characters are never
  /// detected.
  std::size_t ngramChars = 15;
  /// Guarantee threshold: any shared substring of at least this many
  /// characters is always detected. Must be >= ngramChars.
  std::size_t windowChars = 30;

  /// Number of consecutive n-gram hashes per winnowing window
  /// (w = t - n + 1 in the winnowing paper's notation).
  [[nodiscard]] std::size_t windowHashes() const noexcept {
    return windowChars >= ngramChars ? windowChars - ngramChars + 1 : 1;
  }
};

class Fingerprint {
 public:
  Fingerprint() = default;

  /// Builds a fingerprint from winnow-selected grams (any order, duplicates
  /// allowed; duplicates collapse in the hash set but all positions are
  /// kept for attribution).
  static Fingerprint fromSelected(std::vector<HashedGram> selected);

  /// Assembles a fingerprint from components the caller already prepared:
  /// `grams` in position order and `hashes` sorted and de-duplicated
  /// (debug-asserted). The fused kernel's epilogue: winnowing emits picks
  /// in position order and the kernel radix-sorts the hash set itself, so
  /// nothing is left for this factory to do but adopt the vectors.
  static Fingerprint fromSortedParts(std::vector<HashedGram> grams,
                                     std::vector<Hash> hashes);

  /// Selected grams in normalized-text position order.
  [[nodiscard]] const std::vector<HashedGram>& grams() const noexcept {
    return grams_;
  }

  /// Sorted, de-duplicated hash values. This is "F(A)" in the paper's
  /// disclosure equations.
  [[nodiscard]] const std::vector<Hash>& hashes() const noexcept {
    return hashes_;
  }

  /// |F(A)|: number of distinct hashes.
  [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return hashes_.empty(); }

  /// O(log n) membership test.
  [[nodiscard]] bool contains(Hash hash) const noexcept;

  /// |F(A) ∩ F(B)|.
  [[nodiscard]] static std::size_t intersectionSize(
      const Fingerprint& a, const Fingerprint& b) noexcept;

  /// True if both fingerprints have identical hash sets (positions may
  /// differ, e.g. after shuffling paragraph content).
  [[nodiscard]] bool sameHashes(const Fingerprint& other) const noexcept {
    return hashes_ == other.hashes_;
  }

 private:
  std::vector<HashedGram> grams_;
  std::vector<Hash> hashes_;
};

}  // namespace bf::text
