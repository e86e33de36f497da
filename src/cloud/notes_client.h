// NotesClient/NotesBackend: an Evernote-like note-taking service.
//
// The paper's mechanisms "can be used to support other services with
// minimal effort" (S5.2) — Evernote is its named second dynamic service.
// This client differs from the Docs simulation in both dimensions that
// matter to the plug-in: notes are edited as plain <p> elements (not
// custom-classed divs), and saves upload the WHOLE note as a JSON body
// (not per-paragraph form mutations). The plug-in handles both through
// its generic paths: <p> paragraph containers for mutation observation,
// and the JSON body adapter for upload interception.
#pragma once

#include <map>
#include <string>

#include "browser/page.h"
#include "cloud/network.h"

namespace bf::cloud {

/// Server side: stores notes keyed by id; accepts JSON posts to /api/notes
/// with string fields "note_id" and "text".
class NotesBackend final : public Backend {
 public:
  browser::HttpResponse handle(const browser::HttpRequest& req) override;

  [[nodiscard]] std::string noteText(const std::string& noteId) const;
  [[nodiscard]] std::size_t noteCount() const noexcept {
    return notes_.size();
  }
  [[nodiscard]] std::size_t saveCount() const noexcept { return saves_; }

 private:
  std::map<std::string, std::string> notes_;
  std::size_t saves_ = 0;
};

/// Client side: the in-page note editor.
class NotesClient {
 public:
  NotesClient(browser::Page& page, std::string noteId);

  /// Builds the editor DOM: <div id="note-editor"><p>...</p>...</div>.
  void openNote();

  [[nodiscard]] browser::Node* editorRoot();
  [[nodiscard]] browser::Node* paragraphNode(std::size_t index);
  [[nodiscard]] std::size_t paragraphCount();
  /// Full note text (paragraphs joined by blank lines).
  [[nodiscard]] std::string noteText();

  /// DOM edits (observers fire); the note auto-saves after each edit, as
  /// note apps do. Returns the save's HTTP status (0/403 = intercepted).
  int setParagraph(std::size_t index, const std::string& text);
  int appendParagraph(const std::string& text);
  int deleteParagraph(std::size_t index);

  /// Uploads the whole note as JSON via XHR.
  int save();

 private:
  browser::Page& page_;
  std::string noteId_;
};

}  // namespace bf::cloud
