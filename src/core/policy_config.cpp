#include "core/policy_config.h"

#include "io/vfs.h"
#include "util/strings.h"

namespace bf::core {

namespace {

/// "a, b , c" -> {"a", "b", "c"} (trimmed, empties dropped).
std::vector<std::string> splitList(std::string_view csv) {
  std::vector<std::string> out;
  for (std::string_view piece : util::split(csv, ',')) {
    const std::string_view trimmed = util::trim(piece);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

tdm::TagSet toTagSet(std::string_view csv) {
  tdm::TagSet tags;
  for (auto& t : splitList(csv)) tags.insert(std::move(t));
  return tags;
}

struct PendingService {
  tdm::ServiceInfo info;
  bool jsonAdapter = false;
  std::vector<std::string> adapterKeys;
};

struct PendingSecret {
  std::string name;
  tdm::Tag tag;
  std::string value;
};

}  // namespace

util::Result<PolicyConfigSummary> loadPolicyConfig(
    BrowserFlowPlugin& plugin, std::string_view configText) {
  using R = util::Result<PolicyConfigSummary>;
  PolicyConfigSummary summary;

  enum class Section { kNone, kDefaults, kService, kSecret };
  Section section = Section::kNone;
  PendingService service;
  PendingSecret secret;

  auto flushService = [&] {
    if (service.info.id.empty()) return;
    plugin.policy().services().upsert(service.info);
    if (service.jsonAdapter) {
      plugin.registerServiceAdapter(
          service.info.id,
          std::make_unique<JsonFieldAdapter>(service.adapterKeys));
    }
    ++summary.services;
    service = PendingService{};
  };
  auto flushSecret = [&] {
    if (secret.name.empty()) return;
    if (secret.value.empty() || secret.tag.empty()) {
      summary.warnings.push_back("secret '" + secret.name +
                                 "' needs both value and tag; skipped");
    } else if (!plugin.secretGuard().addSecret(secret.name, secret.value,
                                               secret.tag)) {
      summary.warnings.push_back("secret '" + secret.name +
                                 "' too short after normalization; skipped");
    } else {
      ++summary.secrets;
    }
    secret = PendingSecret{};
  };

  std::size_t lineNo = 0;
  for (std::string_view rawLine : util::split(configText, '\n')) {
    ++lineNo;
    std::string_view line = util::trim(rawLine);
    if (line.empty() || line.front() == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return R::error("line " + std::to_string(lineNo) +
                        ": unterminated section header");
      }
      flushService();
      flushSecret();
      const std::string_view body = util::trim(line.substr(1, line.size() - 2));
      const std::size_t space = body.find(' ');
      const std::string_view kind =
          space == std::string_view::npos ? body : body.substr(0, space);
      const std::string_view arg =
          space == std::string_view::npos
              ? std::string_view{}
              : util::trim(body.substr(space + 1));
      if (kind == "defaults") {
        section = Section::kDefaults;
      } else if (kind == "service") {
        if (arg.empty()) {
          return R::error("line " + std::to_string(lineNo) +
                          ": [service] needs an origin id");
        }
        section = Section::kService;
        service.info.id = std::string(arg);
        service.info.displayName = std::string(arg);
      } else if (kind == "secret") {
        if (arg.empty()) {
          return R::error("line " + std::to_string(lineNo) +
                          ": [secret] needs a name");
        }
        section = Section::kSecret;
        secret.name = std::string(arg);
      } else {
        summary.warnings.push_back("line " + std::to_string(lineNo) +
                                   ": unknown section '" + std::string(kind) +
                                   "' ignored");
        section = Section::kNone;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      summary.warnings.push_back("line " + std::to_string(lineNo) +
                                 ": not a key=value pair; ignored");
      continue;
    }
    const std::string key(util::trim(line.substr(0, eq)));
    const std::string_view value = util::trim(line.substr(eq + 1));

    switch (section) {
      case Section::kDefaults:
        if (key == "mode") {
          if (value == "warn") {
            plugin.setEnforcementMode(EnforcementMode::kWarn);
          } else if (value == "block") {
            plugin.setEnforcementMode(EnforcementMode::kBlock);
          } else if (value == "encrypt") {
            plugin.setEnforcementMode(EnforcementMode::kEncrypt);
          } else {
            return R::error("line " + std::to_string(lineNo) +
                            ": mode must be warn|block|encrypt");
          }
          summary.modeSet = true;
        } else {
          summary.warnings.push_back("line " + std::to_string(lineNo) +
                                     ": unknown defaults key '" + key + "'");
        }
        break;
      case Section::kService:
        if (key == "name") {
          service.info.displayName = std::string(value);
        } else if (key == "privilege") {
          service.info.privilege = toTagSet(value);
        } else if (key == "confidentiality") {
          service.info.confidentiality = toTagSet(value);
        } else if (key == "adapter") {
          if (util::startsWith(value, "json:") || value == "json") {
            service.jsonAdapter = true;
            const std::size_t colon = value.find(':');
            if (colon != std::string_view::npos) {
              service.adapterKeys = splitList(value.substr(colon + 1));
            }
          } else {
            summary.warnings.push_back("line " + std::to_string(lineNo) +
                                       ": unknown adapter '" +
                                       std::string(value) + "'");
          }
        } else {
          summary.warnings.push_back("line " + std::to_string(lineNo) +
                                     ": unknown service key '" + key + "'");
        }
        break;
      case Section::kSecret:
        if (key == "tag") {
          secret.tag = std::string(value);
        } else if (key == "value") {
          secret.value = std::string(value);
        } else {
          summary.warnings.push_back("line " + std::to_string(lineNo) +
                                     ": unknown secret key '" + key + "'");
        }
        break;
      case Section::kNone:
        summary.warnings.push_back("line " + std::to_string(lineNo) +
                                   ": key outside any section; ignored");
        break;
    }
  }
  flushService();
  flushSecret();
  return summary;
}

util::Result<PolicyConfigSummary> loadPolicyConfigFile(
    BrowserFlowPlugin& plugin, const std::string& path) {
  using R = util::Result<PolicyConfigSummary>;
  const util::Result<std::string> text = io::defaultVfs().readFile(path);
  if (!text.ok()) return R::error("cannot open: " + path);
  return loadPolicyConfig(plugin, text.value());
}

}  // namespace bf::core
