// bftaint fixture: taint survives concatenation and a second hop before
// reaching a std::cout stream.
// bftaint-expect: taint-to-sink
// bftaint-sinks: std stream
#include <iostream>
#include <string>

#include "sec/sensitive.h"

namespace bf {

void leakViaConcat(sec::SensitiveText doc) {
  std::string prefix = "payload: ";
  std::string merged = prefix + std::string(doc.raw());
  std::string hop = merged;
  std::cout << hop << "\n";
}

}  // namespace bf
