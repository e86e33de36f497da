#include "cloud/notes_client.h"

#include "util/json_text.h"

namespace bf::cloud {

browser::HttpResponse NotesBackend::handle(const browser::HttpRequest& req) {
  std::string noteId, text;
  bool haveText = false;
  for (const auto& field : util::scanJsonStringFields(req.body)) {
    if (field.key == "note_id") noteId = field.value;
    if (field.key == "text") {
      text = field.value;
      haveText = true;
    }
  }
  if (noteId.empty() || !haveText) return {400, "missing note_id or text"};
  notes_[noteId] = text;
  ++saves_;
  return {200, "ok"};
}

std::string NotesBackend::noteText(const std::string& noteId) const {
  auto it = notes_.find(noteId);
  return it == notes_.end() ? std::string{} : it->second;
}

NotesClient::NotesClient(browser::Page& page, std::string noteId)
    : page_(page), noteId_(std::move(noteId)) {}

void NotesClient::openNote() {
  auto& doc = page_.document();
  auto editor = doc.createElement("div");
  editor->setAttribute("id", "note-editor");
  editor->setAttribute("class", "note-body");
  doc.root()->appendChild(std::move(editor));
  page_.flushObservers();
}

browser::Node* NotesClient::editorRoot() {
  return page_.document().root()->byId("note-editor");
}

browser::Node* NotesClient::paragraphNode(std::size_t index) {
  browser::Node* editor = editorRoot();
  if (editor == nullptr || index >= editor->children().size()) return nullptr;
  return editor->children()[index].get();
}

std::size_t NotesClient::paragraphCount() {
  browser::Node* editor = editorRoot();
  return editor == nullptr ? 0 : editor->children().size();
}

std::string NotesClient::noteText() {
  browser::Node* editor = editorRoot();
  if (editor == nullptr) return {};
  std::string out;
  for (const auto& p : editor->children()) {
    if (!out.empty()) out += "\n\n";
    out += p->textContent();
  }
  return out;
}

int NotesClient::setParagraph(std::size_t index, const std::string& text) {
  browser::Node* p = paragraphNode(index);
  if (p == nullptr) return appendParagraph(text);
  if (p->children().empty()) {
    p->appendChild(page_.document().createTextNode(text));
  } else {
    p->children().front()->setText(text);
  }
  return save();
}

int NotesClient::appendParagraph(const std::string& text) {
  browser::Node* editor = editorRoot();
  if (editor == nullptr) return 0;
  auto para = page_.document().createElement("p");
  para->appendChild(page_.document().createTextNode(text));
  editor->appendChild(std::move(para));
  return save();
}

int NotesClient::deleteParagraph(std::size_t index) {
  browser::Node* p = paragraphNode(index);
  if (p == nullptr) return 0;
  editorRoot()->removeChild(p);
  return save();
}

int NotesClient::save() {
  page_.flushObservers();  // observers run before the request leaves
  const std::string body = std::string("{\"note_id\": \"") +
                           util::escapeJsonString(noteId_) +
                           "\", \"text\": \"" +
                           util::escapeJsonString(noteText()) + "\"}";
  browser::Xhr xhr = page_.newXhr();
  xhr.open("POST", page_.origin() + "/api/notes");
  xhr.setRequestHeader("content-type", "application/json");
  return xhr.send(body).status;
}

}  // namespace bf::cloud
