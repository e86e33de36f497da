// bftaint fixture: a local helper forwards its argument to BF_LOG, so the
// helper is a sink at its call sites (per-function summaries).
// bftaint-expect: taint-to-sink
// bftaint-sinks: sink helper
#include <string>

#include "sec/sensitive.h"
#include "util/logging.h"

namespace bf {

namespace {

void logMessage(const std::string& message) {
  BF_LOG(util::LogLevel::kInfo, "demo") << message;
}

}  // namespace

void leakViaHelper(sec::SensitiveText doc) {
  logMessage(std::string(doc.raw()));
}

}  // namespace bf
