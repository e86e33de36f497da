// Audit trail (paper S3.1).
//
// "Tag suppression incurs an audit trail because it may result in sensitive
//  data disclosure. ... we also store an identifier of the user who
//  initiated the suppression and a justification to facilitate future
//  audits."
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tdm/tag_set.h"
#include "util/clock.h"

namespace bf::tdm {

/// One auditable event.
struct AuditRecord {
  enum class Kind : std::uint8_t {
    kTagSuppressed,      // user declassified a tag on a segment copy
    kCustomTagAllocated, // user allocated a new custom tag
    kPrivilegeChanged,   // Lp of a service changed
    kUploadBlocked,      // enforcement blocked an upload
    kUploadEncrypted,    // enforcement encrypted an upload
    kViolationWarned,    // advisory warning surfaced to the user
    kDecisionDegraded,   // engine's durability health flipped
  };

  Kind kind;
  util::Timestamp at = 0;
  std::string user;
  Tag tag;                 // involved tag, if any
  std::string segment;     // involved segment name, if any
  std::string service;     // involved service, if any
  std::string justification;
};

class AuditLog {
 public:
  void append(AuditRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] const std::vector<AuditRecord>& records() const noexcept {
    return records_;
  }

  /// Records of one kind, in append order.
  [[nodiscard]] std::vector<AuditRecord> byKind(AuditRecord::Kind kind) const;

  /// Records initiated by one user, in append order.
  [[nodiscard]] std::vector<AuditRecord> byUser(std::string_view user) const;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  std::vector<AuditRecord> records_;
};

}  // namespace bf::tdm
