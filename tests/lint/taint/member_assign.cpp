// bftaint fixture: raw content assigned to a member (`.m =`, `->m =`,
// `.m +=`) taints the whole object, which then reaches a sink.
// bftaint-expect: taint-to-sink
// bftaint-sinks: audit record, std stream, BF_LOG stream
#include <iostream>
#include <string>
#include <utility>

#include "sec/sensitive.h"
#include "tdm/audit.h"
#include "util/logging.h"

namespace bf {

struct Note {
  std::string text;
};

class Recorder {
 public:
  void recordWarning(sec::SensitiveView para) {
    tdm::AuditRecord rec;
    rec.justification = std::string(para.raw());
    audit_.append(std::move(rec));
  }

  void printNote(sec::SensitiveView para, Note* note) {
    note->text = std::string(para.raw());
    std::cout << *note << "\n";
  }

  void logSummary(sec::SensitiveView para) {
    Note summary;
    summary.text += std::string(para.raw());
    BF_LOG(util::LogLevel::kInfo, "demo") << describe(summary);
  }

 private:
  tdm::AuditLog audit_;
};

}  // namespace bf
