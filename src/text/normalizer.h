// Text normalization — step S1 of the fingerprinting pipeline (paper S4.1).
//
// "It normalises the text segment by removing punctuation, whitespace and
//  character case. For example, "Hello World!" is transformed to
//  "helloworld"."
//
// Besides the normalized string we keep a map from every normalized
// character back to its offset in the original text. The paper relies on
// this to "attribute accurately which text segment passages caused
// information disclosure" (S4.1): a fingerprint hash carries the position of
// its n-gram, and the map converts that to a user-visible source range.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bf::text {

/// Result of normalizing a text segment.
struct NormalizedText {
  /// Lowercased text with punctuation and whitespace removed.
  std::string text;
  /// originalOffset[i] is the byte offset in the input of text[i].
  std::vector<std::uint32_t> originalOffset;

  [[nodiscard]] std::size_t size() const noexcept { return text.size(); }
  [[nodiscard]] bool empty() const noexcept { return text.empty(); }
};

/// Normalizes `input` per S1. Only ASCII letters and digits are kept
/// (lowercased); every other byte is dropped. Bytes >= 0x80 (non-ASCII) are
/// kept verbatim so that non-English text still fingerprints stably.
[[nodiscard]] NormalizedText normalize(std::string_view input);

/// normalize() as a 256-entry byte table: 0 means "drop this byte",
/// anything else is the normalized character. The fused fingerprint
/// kernels and the secret guard's automaton walk read text through it
/// instead of materialising a normalized copy; the differential tests pin
/// it to normalize().
inline constexpr std::array<unsigned char, 256> kNormTable = [] {
  std::array<unsigned char, 256> t{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 'a' && c <= 'z') {
      t[static_cast<std::size_t>(c)] = static_cast<unsigned char>(c);
    } else if (c >= 'A' && c <= 'Z') {
      t[static_cast<std::size_t>(c)] =
          static_cast<unsigned char>(c - 'A' + 'a');
    } else if (c >= '0' && c <= '9') {
      t[static_cast<std::size_t>(c)] = static_cast<unsigned char>(c);
    } else if (c >= 0x80) {
      t[static_cast<std::size_t>(c)] = static_cast<unsigned char>(c);
    }
  }
  return t;
}();

}  // namespace bf::text
