// Leak shape 2: silently converting a SensitiveView back into a
// std::string_view — the conversion taint-out must not exist. Control:
// the plumbing escape hatch is an explicit, lint-tracked raw() call.
// nc-expect: conver\w+ .*SensitiveView.* to .*std::string_view
#include <string_view>

#include "sec/sensitive.h"

namespace bf {

std::string_view peek(sec::SensitiveView view) {
#ifdef BF_NC_CONTROL
  return view.raw();
#else
  return view;
#endif
}

}  // namespace bf
