// Leak shape 6: calling the test-only total declassifier from production
// code. The symbol only exists under BF_SEC_ENABLE_TEST_DECLASSIFY, which
// only the tests/ and bench/ targets define — so this fixture's control
// flag is that define itself, not BF_NC_CONTROL.
// nc-control-flags: -DBF_SEC_ENABLE_TEST_DECLASSIFY
// nc-expect: .declassifyForTest. is not a member of .bf::sec.|no member named .declassifyForTest.
#include <string>

#include "sec/sensitive.h"

namespace bf {

std::string exfiltrate(const sec::SensitiveText& doc) {
  return sec::declassifyForTest(doc);
}

}  // namespace bf
