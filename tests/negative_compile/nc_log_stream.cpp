// Leak shape 1: streaming sensitive content into a log line. There is no
// operator<< for SensitiveText/SensitiveView, so the stream insert does not
// compile. Control: log the redacted preview instead.
// nc-expect: (no match for .operator<<.|invalid operands to binary expression).*SensitiveText
#include <sstream>

#include "sec/sensitive.h"

namespace bf {

void logDocument(std::ostringstream& log, const sec::SensitiveText& doc) {
#ifdef BF_NC_CONTROL
  log << "demo: " << sec::redact(doc).text;
#else
  log << "demo: " << doc;
#endif
}

}  // namespace bf
