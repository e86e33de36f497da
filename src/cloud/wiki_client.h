// WikiClient: the in-page script of a form-based internal wiki.
//
// Represents the paper's "primarily static" service class (S5.1): content
// is edited in a <textarea> inside a <form> and saved with a submit — the
// interception point is the form's submit event, not XHR.
#pragma once

#include <string>

#include "browser/page.h"

namespace bf::cloud {

class WikiClient {
 public:
  WikiClient(browser::Page& page, std::string pageId);

  /// Renders the edit form (title input + content textarea + save form).
  void openEditor(const std::string& initialContent = "");

  [[nodiscard]] browser::Node* form();
  [[nodiscard]] browser::Node* contentArea();

  /// Replaces the textarea content (a paste or rewrite).
  void setContent(const std::string& text);
  [[nodiscard]] std::string content();

  /// Submits the form; returns the HTTP status (0 if an interceptor
  /// suppressed the submission).
  int save();

 private:
  browser::Page& page_;
  std::string pageId_;
};

}  // namespace bf::cloud
