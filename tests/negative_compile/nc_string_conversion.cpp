// Leak shape 3: materializing sensitive text as an ordinary std::string.
// SensitiveText has no conversion to std::string. Control: keep the
// value in the sensitive domain.
// nc-expect: conversion from .const bf::sec::SensitiveText. to (non-scalar type )?.std::string.
#include <string>

#include "sec/sensitive.h"

namespace bf {

void copyOut(const sec::SensitiveText& doc) {
#ifdef BF_NC_CONTROL
  sec::SensitiveText copy = doc;
  (void)copy;
#else
  std::string copy = doc;
  (void)copy;
#endif
}

}  // namespace bf
