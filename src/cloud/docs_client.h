// DocsClient: the in-page script of the Google-Docs-like editor.
//
// Mirrors what the paper observed of Google Docs (S5.2): user text is
// embedded "directly into the DOM tree" as custom-formatted paragraph
// <div>s (no <input>/<textarea>), and every edit triggers an AJAX request
// carrying the mutation. BrowserFlow therefore watches this client through
// mutation observers and the patched XMLHttpRequest prototype — never
// through service-specific hooks.
#pragma once

#include <string>

#include "browser/page.h"

namespace bf::cloud {

class DocsClient {
 public:
  /// Binds to a page whose origin hosts a DocsBackend; `docId` names the
  /// document being edited.
  DocsClient(browser::Page& page, std::string docId);

  /// Builds the editor DOM (the "document open" render).
  void openDocument();

  /// Root element containing the paragraph divs.
  [[nodiscard]] browser::Node* editorRoot();

  /// The <div class="docs-paragraph"> for paragraph `index` (nullptr if
  /// out of range).
  [[nodiscard]] browser::Node* paragraphNode(std::size_t index);
  [[nodiscard]] std::string paragraphText(std::size_t index);
  [[nodiscard]] std::size_t paragraphCount();

  // ---- Editing operations. Each mutates the DOM (observers fire), then
  // ---- uploads the mutation via XHR (the patched prototype sees it).
  // ---- Returns the HTTP status the page script saw (0 = blocked).

  /// Replaces the full text of a paragraph (e.g. a paste into it).
  int setParagraph(std::size_t index, const std::string& text);
  /// Appends one character — the per-keystroke path of S6.2.
  int typeChar(std::size_t index, char c);
  /// Types a string one character at a time. Returns the first non-2xx
  /// status any keystroke saw (200 when all succeeded), so callers notice
  /// a blocked or failed keystroke even mid-string.
  int typeText(std::size_t index, const std::string& text);
  /// Inserts a new paragraph before `index`.
  int insertParagraph(std::size_t index, const std::string& text);
  int deleteParagraph(std::size_t index);
  /// Pastes a multi-paragraph text as new paragraphs at the end. Returns
  /// the first non-2xx status (200 when every paragraph succeeded).
  int pasteDocument(const std::string& fullText);

 private:
  int uploadMutation(const std::string& op, std::size_t index,
                     const std::string& text);

  browser::Page& page_;
  std::string docId_;
};

}  // namespace bf::cloud
