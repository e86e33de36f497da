// bflint fixture: library code in src/ does not print. Counts go to the
// obs registry, decisions to the flight recorder, violations to the audit
// log; a console line reaches no operator and can carry document text.
// bflint-expect: console-output
#include <cstdio>
#include <iostream>

namespace bf::lintfixture {

inline void reportViolation(int segment) {
  std::fprintf(stderr, "violation in segment %d\n", segment);
  std::printf("violation\n");
  std::cerr << "violation " << segment << '\n';
}

}  // namespace bf::lintfixture
