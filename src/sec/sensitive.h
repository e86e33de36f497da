// Compile-time sensitivity taint types (DESIGN.md §14).
//
// BrowserFlow's premise is that raw document content must not escape
// through unvetted channels — yet nothing used to stop a PR from dropping
// a paragraph into a log stream, a metrics exemplar, an AuditRecord or a
// wire payload. SensitiveText / SensitiveView make the data plane's content
// carriers distinct types that the compiler refuses to convert back into
// std::string / std::string_view.
//
// The model mirrors the paper's *imprecise* flow tracking:
//
//  - Taint IN is implicit and over-approximated: any raw string may become
//    Sensitive the moment it is passed to a content-carrying API
//    (FlowTracker::observeDocument, DecisionRequest::text, ...). Wrapping
//    costs nothing and never fails.
//  - Taint OUT is explicit and enumerable: the ONLY ways to turn sensitive
//    bytes back into ordinary data are the named declassification gates
//    below (redact, contentHash, fingerprinting, sealing, and the
//    test-only declassifyForTest). Each gate's output is safe by
//    construction: a bounded preview, a hash, a fingerprint, ciphertext.
//  - raw() is the plumbing escape hatch for src-internal processing
//    (segmentation, normalization, hashing). scripts/bftaint.py tracks
//    every raw() escape intra-TU and fails the build if a derived value
//    reaches a log / metric / audit / wire sink without passing a gate.
//
// Zero runtime cost: both wrappers are thin layout-identical shells over
// std::string / std::string_view with every accessor inline; release
// codegen is byte-for-byte the code the bare types produced
// (bench_micro_fingerprint gates the <1% budget).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace bf::sec {

class SensitiveText;

/// Non-owning view of sensitive content. The parameter currency of every
/// API that carries raw document text. Implicitly constructible from raw
/// strings (taint-in is free) and from SensitiveText; NEVER implicitly
/// convertible back to std::string_view — that is the whole point.
class SensitiveView {
 public:
  constexpr SensitiveView() noexcept = default;
  constexpr SensitiveView(std::string_view raw) noexcept  // NOLINT(google-explicit-constructor)
      : view_(raw) {}
  constexpr SensitiveView(const char* raw) noexcept  // NOLINT(google-explicit-constructor)
      : view_(raw) {}
  SensitiveView(const std::string& raw) noexcept  // NOLINT(google-explicit-constructor)
      : view_(raw) {}
  SensitiveView(const SensitiveText& text) noexcept;  // NOLINT(google-explicit-constructor)

  /// Escape hatch for src-internal plumbing (fingerprinting, segmentation,
  /// normalization). The returned view is STILL sensitive content:
  /// scripts/bftaint.py taints everything derived from it and fails the
  /// build if such a value reaches a sink outside the gate allowlist.
  [[nodiscard]] constexpr std::string_view raw() const noexcept {
    return view_;
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return view_.size();
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return view_.empty(); }

 private:
  std::string_view view_;
};

/// Owning sensitive content. Move-aware: moving a document through the
/// pipeline (plugin -> DecisionRequest -> engine) never copies the bytes.
class SensitiveText {
 public:
  SensitiveText() = default;
  SensitiveText(std::string raw) noexcept  // NOLINT(google-explicit-constructor)
      : text_(std::move(raw)) {}
  SensitiveText(std::string_view raw)  // NOLINT(google-explicit-constructor)
      : text_(raw) {}
  SensitiveText(const char* raw) : text_(raw) {}  // NOLINT(google-explicit-constructor)
  explicit SensitiveText(SensitiveView view) : text_(view.raw()) {}

  SensitiveText(const SensitiveText&) = default;
  SensitiveText(SensitiveText&&) noexcept = default;
  SensitiveText& operator=(const SensitiveText&) = default;
  SensitiveText& operator=(SensitiveText&&) noexcept = default;

  /// See SensitiveView::raw().
  [[nodiscard]] std::string_view raw() const noexcept { return text_; }

  [[nodiscard]] std::size_t size() const noexcept { return text_.size(); }
  [[nodiscard]] bool empty() const noexcept { return text_.empty(); }
  void clear() noexcept { text_.clear(); }
  /// Replaces the content, reusing the buffer (memo slots).
  void assign(SensitiveView text) { text_.assign(text.raw()); }

  /// Sensitive + sensitive stays sensitive (document assembly).
  SensitiveText& operator+=(SensitiveView more) {
    text_.append(more.raw());
    return *this;
  }
  SensitiveText& operator+=(char c) {
    text_.push_back(c);
    return *this;
  }

 private:
  std::string text_;
};

inline SensitiveView::SensitiveView(const SensitiveText& text) noexcept
    : view_(text.raw()) {}

/// Equality reveals one bit; tests and dedup need it, sinks cannot abuse it.
[[nodiscard]] inline bool operator==(SensitiveView a, SensitiveView b) noexcept {
  return a.raw() == b.raw();
}
[[nodiscard]] inline bool operator!=(SensitiveView a, SensitiveView b) noexcept {
  return !(a == b);
}

// ---- Declassification gates -------------------------------------------------
// Every gate is a named, auditable boundary: bftaint's allowlist is exactly
// this list (plus text::fingerprintText / FlowTracker::fingerprintOf /
// crypto::Sealer::seal / util::fnv1a64, whose outputs are equally
// non-invertible). Adding a gate means editing this header AND the lint —
// a deliberate two-touch change a reviewer cannot miss.

/// A bounded, loggable preview of sensitive content: at most the first and
/// last `keep` characters plus the byte length — the only human-readable
/// form that may reach logs, audits or the flight recorder.
struct Redacted {
  std::string text;
};

/// Builds "<prefix>…<suffix> (<n> chars)". `keep` is clamped to a quarter
/// of the input on each side so short strings never round-trip whole (a
/// 10-byte password redacts to at most 2+2 chars), and both cut points are
/// moved back to UTF-8 code-point boundaries so multi-byte sequences are
/// never split. Empty input yields "(0 chars)".
[[nodiscard]] Redacted redact(SensitiveView text, std::size_t keep = 8);

/// Stable 64-bit content digest (FNV-1a over the raw bytes). Deterministic
/// across processes and runs: equal content always hashes equal, so sinks
/// can correlate without carrying plaintext.
[[nodiscard]] std::uint64_t contentHash(SensitiveView text) noexcept;

#if defined(BF_SEC_ENABLE_TEST_DECLASSIFY)
/// Test/bench-only total declassification. Compiled out of release builds:
/// the symbol does not exist unless the build defines
/// BF_SEC_ENABLE_TEST_DECLASSIFY (tests/ and bench/ targets do; src/ never
/// does — tests/negative_compile/nc_declassify_release.cpp proves calling
/// it from production code cannot compile).
[[nodiscard]] inline std::string declassifyForTest(SensitiveView text) {
  return std::string(text.raw());
}
#endif

}  // namespace bf::sec
