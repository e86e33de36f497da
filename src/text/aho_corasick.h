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

  /// All matches in `text`, in order of their end positions; matches
  /// ending at the same byte come longest first (the state's own patterns
  /// in insertion order, then its suffixes'). Allocates its result. On a
  /// verbatim automaton fed text::normalize's output it is the test oracle
  /// for the mapped walk that SecretGuard::scan runs.
  [[nodiscard]] std::vector<Match> findAll(std::string_view text);

  /// Calls onMatch(id) for each match of findAll(text), in the same order,
  /// without allocating.
  template <typename OnMatch>
  void forEachMatch(std::string_view text, OnMatch&& onMatch) {
    walk(text, [&](std::size_t, const Output& out) {
      onMatch(out.id);
      return true;
    });
  }

  /// True if any registered pattern occurs in `text` (early-outs).
  [[nodiscard]] bool containsAny(std::string_view text);

  [[nodiscard]] std::size_t patternCount() const noexcept {
    return patternList_.size();
  }

 private:
  struct Output {
    std::uint64_t id = 0;
    std::size_t length = 0;
  };

  /// Walks `text`, calling onOutput(end, output) for every output of every
  /// state entered; stops early when onOutput returns false.
  template <typename OnOutput>
  void walk(std::string_view text, OnOutput&& onOutput) {
    if (!built_) build();
    const std::uint32_t* delta = delta_.data();
    std::uint32_t row = 0;  // the root's row
    for (std::size_t i = 0; i < text.size(); ++i) {
      const std::uint32_t entry =
          delta[row + columnOf_[static_cast<unsigned char>(text[i])]];
      row = entry >> 1;
      if ((entry & 1U) == 0) continue;
      const std::uint32_t state = row / columns_;
      for (std::uint32_t k = outputStart_[state]; k < outputStart_[state + 1];
           ++k) {
        if (!onOutput(i + 1, outputs_[k])) return;
      }
    }
  }

  /// Maps text bytes to pattern symbols (identity for the verbatim
  /// automaton); `skipZero_` drops bytes mapped to 0.
  std::array<unsigned char, 256> inputMap_{};
  bool skipZero_ = false;
  /// Source of truth: build() reconstructs the DFA from this list, so
  /// patterns can be added after a search.
  std::vector<std::pair<std::string, std::uint64_t>> patternList_;
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
