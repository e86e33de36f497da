// Aho-Corasick multi-pattern matcher.
//
// Imprecise (fingerprint) tracking "is not effective at a finer granularity
// than paragraphs" (paper S4.4); short sensitive strings — passwords, API
// keys, account numbers — need "data equality only". The secret guard
// (src/core/secret_guard.h) uses this automaton to scan every outgoing
// text for registered short secrets in O(text + matches), independent of
// the number of secrets.
//
// The automaton is a flat DFA over byte classes: a 256-entry table maps
// each text byte to a column, and one row of columns per state holds the
// transitions. An automaton built over an input map (the normalization
// table, text::kNormTable) reads unnormalised text directly: bytes the
// map drops take a column that loops back to the current state, so the
// walk normalises as it goes without a branch or a copy.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bf::text {

class AhoCorasick {
 public:
  /// Matches patterns against text bytes verbatim.
  AhoCorasick();

  /// Reads each text byte b as inputMap[b] and skips bytes that map to 0
  /// (text::kNormTable folds normalization into the walk this way).
  /// Patterns are given in the mapped alphabet, e.g. already normalized.
  explicit AhoCorasick(const std::array<unsigned char, 256>& inputMap);

  /// Registers a pattern with a caller-chosen id. Empty patterns are
  /// ignored.
  void addPattern(std::string_view pattern, std::uint64_t id);

  /// Builds the DFA. Called automatically by the search functions when
  /// patterns changed; exposed for explicit control.
  void build();

  struct Match {
    std::uint64_t id = 0;
    /// Byte offset in the searched text one past the byte that completed
    /// the match.
    std::size_t end = 0;
    /// Length of the matched pattern.
    std::size_t length = 0;
  };

  /// Bytes of one walk: it enters the root at byte `begin`, stops before
  /// byte `end` (clamped to the text), and reports only the matches ending
  /// after `reportAfter`. The defaults walk the whole text.
  struct Range {
    std::size_t begin = 0;
    std::size_t reportAfter = 0;
    std::size_t end = std::string_view::npos;
  };

  /// Calls onMatch(match) for each match inside `range`, in order of end
  /// positions; matches ending at the same byte come longest first (the
  /// state's own patterns in insertion order, then its suffixes'). Stops
  /// early when onMatch returns false. findAll and containsAny are this
  /// walk over the whole text.
  template <typename OnMatch>
  void walk(std::string_view text, const Range& range, OnMatch&& onMatch) {
    if (!built_) build();
    const std::size_t end = std::min(range.end, text.size());
    const std::uint32_t* delta = delta_.data();
    std::uint32_t row = 0;  // the root's row
    for (std::size_t i = range.begin; i < end; ++i) {
      const std::uint32_t entry =
          delta[row + columnOf_[static_cast<unsigned char>(text[i])]];
      row = entry >> 1;
      if ((entry & 1U) == 0 || i < range.reportAfter) continue;
      const std::uint32_t state = row / columns_;
      for (std::uint32_t k = outputStart_[state]; k < outputStart_[state + 1];
           ++k) {
        if (!onMatch(Match{outputs_[k].id, i + 1, outputs_[k].length})) {
          return;
        }
      }
    }
  }

  /// All matches in `text`, in walk() order. Allocates its result. On a
  /// verbatim automaton fed text::normalize's output it is the test oracle
  /// for the mapped walk that SecretGuard runs.
  [[nodiscard]] std::vector<Match> findAll(std::string_view text);

  /// True if any registered pattern occurs in `text` (early-outs).
  [[nodiscard]] bool containsAny(std::string_view text);

  /// True if the walk consumes `byte` (false for bytes the input map
  /// drops: they leave the state as it is).
  [[nodiscard]] bool consumes(unsigned char byte) const noexcept {
    return !skipZero_ || inputMap_[byte] != 0;
  }

  /// Length of the longest registered pattern, in consumed symbols. No
  /// state is deeper, so a state depends only on the last this many
  /// consumed symbols (SecretGuard::rescan rests on it).
  [[nodiscard]] std::size_t maxPatternLength() const noexcept {
    return maxPatternLength_;
  }

  [[nodiscard]] std::size_t patternCount() const noexcept {
    return patternList_.size();
  }

 private:
  struct Output {
    std::uint64_t id = 0;
    std::size_t length = 0;
  };

  /// Maps text bytes to pattern symbols (identity for the verbatim
  /// automaton); `skipZero_` drops bytes mapped to 0.
  std::array<unsigned char, 256> inputMap_{};
  bool skipZero_ = false;
  /// Source of truth: build() reconstructs the DFA from this list, so
  /// patterns can be added after a search.
  std::vector<std::pair<std::string, std::uint64_t>> patternList_;
  std::size_t maxPatternLength_ = 0;
  bool built_ = false;

  // ---- The DFA (rebuilt by build()) ----------------------------------------
  /// Text byte → column of a state's row.
  std::array<std::uint32_t, 256> columnOf_{};
  std::uint32_t columns_ = 1;
  /// Row-major transitions: delta_[row + column] for the state whose row
  /// starts at `row` is (target's row << 1) | 1 if entering the target
  /// reports outputs. A skipped byte's column holds the state's own row
  /// with the flag clear, so skipping reports nothing twice.
  std::vector<std::uint32_t> delta_;
  /// Outputs of state s are outputs_[outputStart_[s], outputStart_[s + 1]):
  /// its own patterns in insertion order, then its suffix states' outputs.
  std::vector<std::uint32_t> outputStart_;
  std::vector<Output> outputs_;
};

}  // namespace bf::text
