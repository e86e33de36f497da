// bftaint fixture: a Sensitive-returning function taints its call site
// even with no visible .raw() in the leaking function.
// bftaint-expect: taint-to-sink
// bftaint-sinks: stdio output
#include <cstdio>
#include <string>

#include "sec/sensitive.h"

namespace bf {

sec::SensitiveText loadDocument();

void leakFromReturn() {
  auto doc = loadDocument();
  std::printf("%zu %s\n", doc.size(), doc.raw().data());
}

}  // namespace bf
