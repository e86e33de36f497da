// bftaint fixture: raw content copied into an outgoing request body in
// plaintext, where only a sealed envelope may go.
// bftaint-expect: taint-to-sink
// bftaint-sinks: wire payload
#include <string>

#include "browser/http.h"
#include "sec/sensitive.h"

namespace bf {

void leakToWire(sec::SensitiveView para, browser::HttpRequest& req) {
  req.body = std::string(para.raw());
}

}  // namespace bf
