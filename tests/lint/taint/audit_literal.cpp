// bftaint fixture: raw content lands in an audit record literal, both as a
// declaration and as a temporary. The initialiser's braces belong to the
// statement, so its arguments are judged together with the sink.
// bftaint-expect: taint-to-sink
// bftaint-sinks: audit record literal
#include <string>

#include "sec/sensitive.h"
#include "tdm/audit.h"

namespace bf {

void leakToAuditLiteral(sec::SensitiveView para) {
  tdm::AuditRecord rec{tdm::AuditRecord::Kind::kViolationWarned,
                       0, "", tdm::Tag{}, std::string(para.raw()), "", ""};
  auto copy = tdm::AuditRecord{tdm::AuditRecord::Kind::kUploadBlocked,
                               0, "", tdm::Tag{}, "", "",
                               std::string(para.raw())};
}

}  // namespace bf
