// SecretGuard — exact-match protection for short sensitive strings.
//
// The paper concedes that imprecise tracking cannot protect text shorter
// than a fingerprinting window: "Short but sensitive text ... is typically
// only relevant ... in specific scenarios, e.g. when the text is used as a
// password. For such specific use cases, for example password reuse
// prevention, specialised systems which rely on data equality only are
// more effective." (S4.4)
//
// SecretGuard is that specialised system, integrated: administrators
// register short secrets (passwords, API keys, account numbers); every
// outgoing text is scanned with one Aho-Corasick pass that normalizes as it
// walks (text::kNormTable folded into the automaton's byte classes), so
// matching is insensitive to case, spacing and punctuation, and costs
// O(text) regardless of how many secrets are registered. A text that is an
// edit of one already scanned is rescanned around the edit only, which is
// what a keystroke costs (rescan).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sec/sensitive.h"
#include "tdm/tag_set.h"
#include "text/aho_corasick.h"
#include "text/fingerprint_kernel.h"

namespace bf::core {

class SecretGuard {
 public:
  SecretGuard();

  /// One registered secret.
  struct Secret {
    std::string name;  ///< human-readable label for warnings/audit
    tdm::Tag tag;      ///< TDM tag attached to uploads containing it
  };

  /// Registers a secret. `value` is normalized before indexing, so
  /// "Hunter-2 42" and "hunter242" are the same secret. Values whose
  /// normalized form is shorter than `minLength` (default 6) are rejected
  /// to avoid false positives on trivial strings. Returns false if
  /// rejected. A registered secret bumps generation().
  bool addSecret(std::string name, std::string_view value, tdm::Tag tag);

  /// Changes whenever the set of secrets does, so a caller that keeps a
  /// text's scan result can tell when it has gone stale.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// One hit in a scanned text.
  struct Hit {
    std::string name;
    tdm::Tag tag;
  };

  /// One match of a registered secret in a text.
  struct Match {
    std::size_t secret = 0;  ///< index of the secret, in registration order
    /// Raw byte offset one past the text byte that completed the match.
    std::size_t end = 0;
    bool operator==(const Match&) const = default;
  };

  /// Every match of a registered secret in `text` (normalized as it is
  /// read), in order of end offsets; matches ending on one byte come
  /// longest first. Walks the whole text.
  [[nodiscard]] std::vector<Match> matches(sec::SensitiveView text);

  /// matches(newText), computed from an earlier text and its matches:
  /// `oldMatches` must be matches(oldText) (or this function's result for
  /// oldText) under the current generation(), and `shared`
  /// text::sharedEdges(oldText, newText). The walk runs from
  /// maxPatternLength consumed bytes before the texts' shared prefix ends
  /// to maxPatternLength consumed bytes into their shared suffix, where
  /// the automaton's state is the old walk's again. The old matches that
  /// end inside the prefix are kept and those past the walk are shifted
  /// by the length difference. When the walk would cover the whole text
  /// it is the full walk. Equal to matches(newText), match for match
  /// (tests/core/secret_guard_test.cpp).
  [[nodiscard]] std::vector<Match> rescan(sec::SensitiveView oldText,
                                          std::span<const Match> oldMatches,
                                          sec::SensitiveView newText,
                                          text::SharedEdges shared);

  /// The secrets of `found` (a matches() or rescan() result), once each,
  /// in the order of their first match. Only the registered secret NAMES
  /// ever leave the guard — never the scanned content.
  [[nodiscard]] std::vector<Hit> hitsOf(std::span<const Match> found);

  /// hitsOf(matches(text)): the distinct secrets in `text`.
  [[nodiscard]] std::vector<Hit> scan(sec::SensitiveView text);

  /// True if any secret occurs in `text`.
  [[nodiscard]] bool containsSecret(sec::SensitiveView text);

  [[nodiscard]] std::size_t size() const noexcept { return secrets_.size(); }

  /// Minimum normalized secret length (guards against trivial patterns).
  static constexpr std::size_t kMinLength = 6;

 private:
  text::AhoCorasick automaton_;
  std::vector<Secret> secrets_;
  std::uint64_t generation_ = 0;
};

}  // namespace bf::core
