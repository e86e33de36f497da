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
// matching is insensitive to case, spacing and punctuation, costs O(text)
// regardless of how many secrets are registered, and allocates nothing but
// the hits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sec/sensitive.h"
#include "tdm/tag_set.h"
#include "text/aho_corasick.h"

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

  /// Scans `text` (normalized as it is read) for all registered secrets.
  /// Distinct secrets are reported once each, in the order of their first
  /// match in the normalized text. Only the registered secret NAMES ever
  /// leave this call — never the scanned content.
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
