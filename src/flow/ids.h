// Identifiers shared by the flow-tracking stores.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bf::flow {

/// Opaque id of a tracked text segment. 0 is reserved as "invalid".
using SegmentId = std::uint64_t;

inline constexpr SegmentId kInvalidSegment = 0;

/// Tracking granularity (paper S4.1): paragraphs and whole documents are
/// tracked independently.
enum class SegmentKind : std::uint8_t { kParagraph = 0, kDocument = 1 };

/// A SegmentKind as an index into per-kind arrays.
[[nodiscard]] constexpr std::size_t kindIndex(SegmentKind k) noexcept {
  return static_cast<std::size_t>(k);
}

/// True for a byte that names a SegmentKind. Snapshot import and WAL
/// replay check every untrusted kind byte before it is cast.
[[nodiscard]] constexpr bool validKindByte(std::uint8_t k) noexcept {
  return k == static_cast<std::uint8_t>(SegmentKind::kParagraph) ||
         k == static_cast<std::uint8_t>(SegmentKind::kDocument);
}

/// True for a threshold a live record may legally carry: D(A,B) scores are
/// ratios in [0, 1], so anything outside that range (or non-finite) is a
/// corrupt or hostile blob, not a configuration.
[[nodiscard]] inline bool validThreshold(double t) noexcept {
  return std::isfinite(t) && t >= 0.0 && t <= 1.0;
}

}  // namespace bf::flow
