#include "core/deployment.h"

#include <utility>

#include "flow/snapshot.h"
#include "io/vfs.h"
#include "tdm/policy_snapshot.h"
#include "util/binary_io.h"
#include "util/crc32c.h"

namespace bf::core {

namespace {

constexpr std::string_view kMagic = "BFDEPS2\n";

}  // namespace

util::Status saveDeployment(BrowserFlowPlugin& plugin, const std::string& path,
                            std::string_view secret) {
  std::string payload(kMagic);
  {
    // Decisions on other threads mutate both stores under the same lock.
    const auto lock = plugin.engine().lockState();
    util::putStr(payload, flow::exportState(plugin.tracker()));
    util::putStr(payload, tdm::exportPolicy(plugin.policy()));
  }
  util::appendCrc32cTrailer(payload);
  return flow::writeSealedFile(io::defaultVfs(), path, payload, secret);
}

util::Result<util::Timestamp> loadDeployment(BrowserFlowPlugin& plugin,
                                             const std::string& path,
                                             std::string_view secret) {
  using R = util::Result<util::Timestamp>;
  const util::Result<std::string> file =
      flow::readSealedFile(io::defaultVfs(), path, secret);
  if (!file.ok()) return R::error(file.errorMessage());
  const std::string_view payload = file.value();
  if (payload.substr(0, kMagic.size()) != kMagic) {
    return R::error("not a BrowserFlow deployment file");
  }
  if (payload.size() < kMagic.size() + 4 ||
      !util::crc32cTrailerValid(payload)) {
    return R::error("deployment file CRC mismatch");
  }
  util::BinaryReader r(
      payload.substr(kMagic.size(), payload.size() - kMagic.size() - 4));
  const std::string trackerBlob = r.str();
  const std::string policyBlob = r.str();
  if (!r.ok() || !r.atEnd()) return R::error("deployment payload corrupt");

  // All or nothing: the policy blob is staged in full before either store
  // changes, importState changes the tracker only once its blob parses,
  // and applying the staged policy cannot fail.
  const auto lock = plugin.engine().lockState();
  util::Result<tdm::StagedPolicy> policy =
      tdm::stagePolicy(plugin.policy(), policyBlob);
  if (!policy.ok()) return R::error(policy.errorMessage());
  const auto info = flow::importState(plugin.tracker(), trackerBlob);
  if (!info.ok()) return R::error(info.errorMessage());
  tdm::applyPolicy(plugin.policy(), std::move(policy).value());
  return info.value().maxTimestamp;
}

}  // namespace bf::core
