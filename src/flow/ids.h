// Identifiers shared by the flow-tracking stores.
#pragma once

#include <cstdint>

namespace bf::flow {

/// Opaque id of a tracked text segment. 0 is reserved as "invalid".
using SegmentId = std::uint64_t;

inline constexpr SegmentId kInvalidSegment = 0;

/// Tracking granularity (paper S4.1): paragraphs and whole documents are
/// tracked independently.
enum class SegmentKind : std::uint8_t { kParagraph = 0, kDocument = 1 };

}  // namespace bf::flow
