// bftaint fixture: the raw text escapes through an alias — the sink
// statement itself never mentions .raw().
// bftaint-expect: taint-to-sink
// bftaint-sinks: stdio output
#include <cstdio>
#include <string>

#include "sec/sensitive.h"

namespace bf {

void leakViaAlias(sec::SensitiveView doc) {
  const std::string plain = std::string(doc.raw());
  std::printf("document: %s\n", plain.c_str());
}

}  // namespace bf
