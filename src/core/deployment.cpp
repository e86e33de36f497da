#include "core/deployment.h"

#include <fstream>

#include "crypto/chacha20.h"
#include "flow/snapshot.h"
#include "tdm/policy_snapshot.h"
#include "util/binary_io.h"
#include "util/hashing.h"

namespace bf::core {

namespace {

constexpr std::string_view kPlainMagic = "BFDEPP1\n";
constexpr std::string_view kEncMagic = "BFDEPE1\n";

crypto::Key256 deriveKey(std::string_view secret) {
  crypto::Key256 key{};
  std::uint64_t h = util::fnv1a64(secret);
  for (int i = 0; i < 4; ++i) {
    h = util::mix64(h + static_cast<std::uint64_t>(i) + 0xDEB1ULL);
    for (int b = 0; b < 8; ++b) {
      key[static_cast<std::size_t>(i * 8 + b)] =
          static_cast<std::uint8_t>(h >> (8 * b));
    }
  }
  return key;
}

}  // namespace

util::Status saveDeployment(BrowserFlowPlugin& plugin, const std::string& path,
                            std::string_view secret) {
  std::string payload;
  {
    // The async decision worker mutates both stores under the same lock.
    const auto lock = plugin.engine().lockState();
    util::putStr(payload, flow::exportState(plugin.tracker()));
    util::putStr(payload, tdm::exportPolicy(plugin.policy()));
  }

  std::string fileData;
  if (secret.empty()) {
    fileData.append(kPlainMagic);
    fileData += payload;
  } else {
    fileData.append(kEncMagic);
    crypto::Nonce96 nonce{};
    const std::uint64_t n1 = util::fnv1a64(payload);
    const std::uint64_t n2 = util::mix64(n1 ^ util::fnv1a64(secret));
    for (int i = 0; i < 8; ++i) {
      nonce[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(n1 >> (8 * i));
    }
    for (int i = 0; i < 4; ++i) {
      nonce[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(n2 >> (8 * i));
    }
    fileData.append(reinterpret_cast<const char*>(nonce.data()), nonce.size());
    fileData += crypto::chacha20Xor(payload, deriveKey(secret), nonce);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::error("cannot open for writing: " + path);
  out.write(fileData.data(), static_cast<std::streamsize>(fileData.size()));
  if (!out) return util::Status::error("write failed: " + path);
  return {};
}

util::Result<util::Timestamp> loadDeployment(BrowserFlowPlugin& plugin,
                                             const std::string& path,
                                             std::string_view secret) {
  using R = util::Result<util::Timestamp>;
  std::ifstream in(path, std::ios::binary);
  if (!in) return R::error("cannot open: " + path);
  std::string fileData((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());

  std::string payload;
  if (fileData.substr(0, kEncMagic.size()) == kEncMagic) {
    if (secret.empty()) {
      return R::error("deployment file is encrypted; secret needed");
    }
    const std::size_t header = kEncMagic.size();
    if (fileData.size() < header + 12) return R::error("file truncated");
    crypto::Nonce96 nonce{};
    for (std::size_t i = 0; i < 12; ++i) {
      nonce[i] = static_cast<std::uint8_t>(fileData[header + i]);
    }
    payload = crypto::chacha20Xor(
        std::string_view(fileData).substr(header + 12), deriveKey(secret),
        nonce);
  } else if (fileData.substr(0, kPlainMagic.size()) == kPlainMagic) {
    payload = fileData.substr(kPlainMagic.size());
  } else {
    return R::error("not a BrowserFlow deployment file");
  }

  util::BinaryReader r(payload);
  const std::string trackerBlob = r.str();
  const std::string policyBlob = r.str();
  if (!r.ok() || !r.atEnd()) return R::error("deployment payload corrupt");

  const auto lock = plugin.engine().lockState();
  const auto maxTs = flow::importState(plugin.tracker(), trackerBlob);
  if (!maxTs.ok()) return maxTs;
  const auto st = tdm::importPolicy(plugin.policy(), policyBlob);
  if (!st.ok()) return R::error(st.errorMessage());
  return maxTs.value();
}

}  // namespace bf::core
