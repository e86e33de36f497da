// bftaint fixture: the simplest leak — unwrapped content streamed into a
// log line. Not compiled; analyzed by scripts/bftaint.py --selftest.
// bftaint-expect: taint-to-sink
// bftaint-sinks: BF_LOG stream
#include "sec/sensitive.h"
#include "util/logging.h"

namespace bf {

void leakDirect(sec::SensitiveText doc) {
  BF_LOG(util::LogLevel::kInfo, "demo") << "content: " << doc.raw();
}

}  // namespace bf
