// bftaint fixture: raw content appended to a member audit log, in the
// `audit_.append(AuditRecord{...})` form the policy uses.
// bftaint-expect: taint-to-sink
// bftaint-sinks: audit record, audit record literal
#include <string>

#include "sec/sensitive.h"
#include "tdm/audit.h"

namespace bf {

class Recorder {
 public:
  void recordWarning(sec::SensitiveView para) {
    audit_.append(tdm::AuditRecord{tdm::AuditRecord::Kind::kViolationWarned,
                                   0, "", tdm::Tag{}, "", "",
                                   std::string(para.raw())});
  }

 private:
  tdm::AuditLog audit_;
};

}  // namespace bf
