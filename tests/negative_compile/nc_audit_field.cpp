// Leak shape 4: dropping raw content into an audit-record field. The
// justification field is a std::string, so sensitive text cannot be
// assigned. Control: audits carry the redact() preview.
// nc-expect: no match for .operator=. \(operand types are .*SensitiveText|no viable overloaded '='
#include "sec/sensitive.h"
#include "tdm/audit.h"

namespace bf {

void annotate(tdm::AuditRecord& rec, const sec::SensitiveText& content) {
#ifdef BF_NC_CONTROL
  rec.justification = sec::redact(content).text;
#else
  rec.justification = content;
#endif
}

}  // namespace bf
