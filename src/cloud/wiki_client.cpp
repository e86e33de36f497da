#include "cloud/wiki_client.h"

namespace bf::cloud {

WikiClient::WikiClient(browser::Page& page, std::string pageId)
    : page_(page), pageId_(std::move(pageId)) {}

void WikiClient::openEditor(const std::string& initialContent) {
  auto& doc = page_.document();
  auto form = doc.createElement("form");
  form->setAttribute("id", "wiki-edit");
  form->setAttribute("method", "post");
  form->setAttribute("action", "/wiki/save");

  auto title = doc.createElement("input");
  title->setAttribute("type", "text");
  title->setAttribute("name", "title");
  title->setAttribute("value", pageId_);
  form->appendChild(std::move(title));

  auto content = doc.createElement("textarea");
  content->setAttribute("name", "content");
  content->setAttribute("id", "wiki-content");
  content->setAttribute("value", initialContent);
  form->appendChild(std::move(content));

  auto token = doc.createElement("input");
  token->setAttribute("type", "hidden");
  token->setAttribute("name", "csrf");
  token->setAttribute("value", "token-123");
  form->appendChild(std::move(token));

  doc.root()->appendChild(std::move(form));
  page_.flushObservers();
}

browser::Node* WikiClient::form() {
  return page_.document().root()->byId("wiki-edit");
}

browser::Node* WikiClient::contentArea() {
  return page_.document().root()->byId("wiki-content");
}

void WikiClient::setContent(const std::string& text) {
  browser::Node* area = contentArea();
  if (area != nullptr) area->setAttribute("value", text);
  page_.flushObservers();
}

std::string WikiClient::content() {
  browser::Node* area = contentArea();
  return area == nullptr ? std::string{} : area->attribute("value");
}

int WikiClient::save() {
  browser::Node* f = form();
  if (f == nullptr) return 0;
  return page_.submitForm(f).status;
}

}  // namespace bf::cloud
