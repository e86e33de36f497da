// SegmentDb — the paper's "DBpar" (S4.3):
//
// "The second data structure (DBpar) stores associations of paragraphs to
//  the last fingerprint that has been calculated for each paragraph."
//
// We generalise paragraphs to segments (the paper tracks paragraphs and
// whole documents independently) and also keep per-segment metadata: kind,
// owning document, originating service, and the per-segment disclosure
// threshold (T_par / T_doc are set per segment, S4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/ids.h"
#include "text/fingerprint.h"
#include "util/binary_io.h"
#include "util/clock.h"

namespace bf::flow {

/// Metadata and latest fingerprint of one tracked segment.
struct SegmentRecord {
  SegmentId id = kInvalidSegment;
  SegmentKind kind = SegmentKind::kParagraph;
  /// Caller-chosen stable name, e.g. "wiki/page-7#p3".
  std::string name;
  /// Identity of the containing document (used to skip intra-document
  /// matches during disclosure queries).
  std::string document;
  /// Id of the cloud service the segment lives in.
  std::string service;
  /// Disclosure threshold for this segment (T_par or T_doc).
  double threshold = 0.5;
  text::Fingerprint fingerprint;
  util::Timestamp createdAt = 0;
  util::Timestamp updatedAt = 0;
};

/// Appends `rec` as snapshot bodies and WAL kSegmentObserved records both
/// store it: u64 id | u8 kind | name | document | service | f64 threshold |
/// u64 createdAt | u64 updatedAt | u64 gram count | (u32 hash, u32 pos)*.
void putSegmentRecord(std::string& out, const SegmentRecord& rec);

/// Reads a record putSegmentRecord wrote into `rec`. Returns an error
/// message for an unknown SegmentKind byte or a threshold out of range,
/// else "" — the caller checks r.ok() for truncation.
[[nodiscard]] std::string readSegmentRecord(util::BinaryReader& r,
                                            SegmentRecord& rec);

class SegmentDb {
 public:
  /// Creates a segment; name must be unique among live segments.
  /// Returns the new id.
  SegmentId create(SegmentKind kind, std::string name, std::string document,
                   std::string service, double threshold, util::Timestamp now);

  /// Replaces a segment's fingerprint ("the last fingerprint calculated").
  void updateFingerprint(SegmentId id, text::Fingerprint fp,
                         util::Timestamp now);

  /// Updates the per-segment disclosure threshold.
  void setThreshold(SegmentId id, double threshold);

  /// Lookup by id; nullptr if removed/unknown.
  [[nodiscard]] const SegmentRecord* find(SegmentId id) const;

  /// Lookup by unique name; nullptr if absent.
  [[nodiscard]] const SegmentRecord* findByName(std::string_view name) const;

  /// Removes a segment. Its id is never reused.
  void remove(SegmentId id);

  /// Number of live segments.
  [[nodiscard]] std::size_t size() const noexcept { return byId_.size(); }

  /// Applies `fn` to every live segment.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const auto& [id, rec] : byId_) fn(rec);
  }

  /// Restores a record with its original id (snapshot import). The id and
  /// name must be unused; the id counter advances past it.
  void restore(SegmentRecord record);

 private:
  SegmentId nextId_ = 1;
  std::unordered_map<SegmentId, SegmentRecord> byId_;
  std::unordered_map<std::string, SegmentId> byName_;
};

}  // namespace bf::flow
