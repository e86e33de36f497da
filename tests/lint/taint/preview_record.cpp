// bftaint fixture: raw content stored as a flight-recorder preview, where
// only the sec::redact() form may go.
// bftaint-expect: taint-to-sink
// bftaint-sinks: flight-recorder preview
#include <string>

#include "obs/flight_recorder.h"
#include "sec/sensitive.h"

namespace bf {

void leakToPreview(sec::SensitiveView para, obs::DecisionTrace& record) {
  record.contentPreview = std::string(para.raw());
}

}  // namespace bf
