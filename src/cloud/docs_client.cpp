#include "cloud/docs_client.h"

#include "util/strings.h"

namespace bf::cloud {

namespace {
std::string encodeComponent(std::string_view s) {
  std::string out;
  for (char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.') {
      out.push_back(c);
    } else if (c == ' ') {
      out.push_back('+');
    } else {
      static const char* kHex = "0123456789ABCDEF";
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}
}  // namespace

DocsClient::DocsClient(browser::Page& page, std::string docId)
    : page_(page), docId_(std::move(docId)) {}

void DocsClient::openDocument() {
  auto& doc = page_.document();
  auto editor = doc.createElement("div");
  editor->setAttribute("id", "editor");
  editor->setAttribute("class", "docs-editor");
  doc.root()->appendChild(std::move(editor));
  page_.flushObservers();
}

browser::Node* DocsClient::editorRoot() {
  return page_.document().root()->byId("editor");
}

browser::Node* DocsClient::paragraphNode(std::size_t index) {
  browser::Node* editor = editorRoot();
  if (editor == nullptr || index >= editor->children().size()) return nullptr;
  return editor->children()[index].get();
}

std::string DocsClient::paragraphText(std::size_t index) {
  browser::Node* p = paragraphNode(index);
  return p == nullptr ? std::string{} : p->textContent();
}

std::size_t DocsClient::paragraphCount() {
  browser::Node* editor = editorRoot();
  return editor == nullptr ? 0 : editor->children().size();
}

int DocsClient::uploadMutation(const std::string& op, std::size_t index,
                               const std::string& text) {
  page_.flushObservers();  // observers run before the request leaves
  std::string body = "doc=" + encodeComponent(docId_) + "&op=" + op +
                     "&para=" + std::to_string(index);
  if (op != "delete") body += "&text=" + encodeComponent(text);
  browser::Xhr xhr = page_.newXhr();
  xhr.open("POST", page_.origin() + "/mutate");
  xhr.setRequestHeader("content-type", "application/x-www-form-urlencoded");
  return xhr.send(body).status;
}

int DocsClient::setParagraph(std::size_t index, const std::string& text) {
  browser::Node* p = paragraphNode(index);
  if (p == nullptr) return insertParagraph(index, text);
  if (p->children().empty()) {
    p->appendChild(page_.document().createTextNode(text));
  } else {
    p->children().front()->setText(text);
  }
  return uploadMutation("set", index, text);
}

int DocsClient::typeChar(std::size_t index, char c) {
  browser::Node* p = paragraphNode(index);
  if (p == nullptr) return insertParagraph(index, std::string(1, c));
  std::string text = p->textContent() + c;
  if (p->children().empty()) {
    p->appendChild(page_.document().createTextNode(text));
  } else {
    p->children().front()->setText(text);
  }
  return uploadMutation("set", index, text);
}

int DocsClient::typeText(std::size_t index, const std::string& text) {
  int status = 200;
  bool failed = false;
  for (char c : text) {
    const int s = typeChar(index, c);
    if (!failed && (s < 200 || s >= 300)) {
      status = s;
      failed = true;
    }
  }
  return status;
}

int DocsClient::insertParagraph(std::size_t index, const std::string& text) {
  browser::Node* editor = editorRoot();
  if (editor == nullptr) return 0;
  auto para = page_.document().createElement("div");
  para->setAttribute("class", "docs-paragraph");
  para->appendChild(page_.document().createTextNode(text));
  const std::size_t at = std::min(index, editor->children().size());
  editor->insertChild(std::move(para), at);
  return uploadMutation("insert", at, text);
}

int DocsClient::deleteParagraph(std::size_t index) {
  browser::Node* p = paragraphNode(index);
  if (p == nullptr) return 0;
  editorRoot()->removeChild(p);
  return uploadMutation("delete", index, "");
}

int DocsClient::pasteDocument(const std::string& fullText) {
  int status = 200;
  bool failed = false;
  for (std::string_view para : util::splitParagraphs(fullText)) {
    const int s = insertParagraph(paragraphCount(), std::string(para));
    if (!failed && (s < 200 || s >= 300)) {
      status = s;
      failed = true;
    }
  }
  return status;
}

}  // namespace bf::cloud
