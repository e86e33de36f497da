// Fixture: raw std::chrono timing in pipeline code (src/core, src/flow)
// must be flagged — stage time goes through obs::StageTimer. Not compiled;
// selftest input only.
// bflint-expect: raw-timing

namespace bf::lintfixture {

long timeAStageByHand() {
  // steady_clock passes wall-clock, but raw chrono in the pipeline evades
  // stage attribution; use obs::StageTimer on util::fastTicks.
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace bf::lintfixture
