// Leak shape 1: streaming sensitive content into a log line. There is no
// operator<< for SensitiveText/SensitiveView, so the LogStream template
// fails to instantiate. Control: log the redacted preview instead.
// nc-expect: (no match for .operator<<.|invalid operands to binary expression).*SensitiveText
#include "sec/sensitive.h"
#include "util/logging.h"

namespace bf {

void logDocument(const sec::SensitiveText& doc) {
#ifdef BF_NC_CONTROL
  BF_LOG(util::LogLevel::kInfo, "demo") << sec::redact(doc).text;
#else
  BF_LOG(util::LogLevel::kInfo, "demo") << doc;
#endif
}

}  // namespace bf
