// DlpAppliance — the network-level data-leakage-prevention baseline.
//
// The paper positions BrowserFlow against classic DLP systems that
// "protect sensitive data on client endpoints by inspecting outgoing
// network traffic" (S2.2): application-level firewalls matching known
// content, and "specialised solutions which employ text similarity
// techniques to detect information disclosure in network streams". This
// module implements both flavours as a RequestSink middlebox so the bench
// suite can compare them against browser-level tracking on the same
// workloads — including the case the paper highlights: the appliance sits
// outside the browser, so TLS payloads are opaque to it, while
// BrowserFlow intercepts before encryption.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "browser/http.h"
#include "sec/sensitive.h"
#include "text/winnower.h"

namespace bf::cloud {

class DlpAppliance final : public browser::RequestSink {
 public:
  enum class Mode {
    /// Application-firewall style: exact substring chunks of registered
    /// documents (robust to nothing but verbatim copies).
    kExactChunks,
    /// MyDLP style: winnowing-fingerprint containment against registered
    /// documents (naive, no authority/provenance, no policy model).
    kFingerprint,
  };

  struct Config {
    Mode mode = Mode::kExactChunks;
    /// kExactChunks: chunk length/stride over normalized document text.
    std::size_t chunkChars = 48;
    std::size_t chunkStride = 16;
    /// kFingerprint: containment threshold.
    double threshold = 0.5;
    /// When true, payloads are treated as TLS ciphertext: the appliance
    /// forwards everything uninspected (the deployment reality the paper
    /// contrasts with in S5.2).
    bool trafficEncrypted = false;
  };

  /// `upstream` receives all traffic (flagged or not — the baseline is
  /// measured on detection, like BrowserFlow's advisory mode). Not owned.
  DlpAppliance(browser::RequestSink* upstream, Config config);

  /// Registers a sensitive document the appliance must watch for. Only
  /// chunk hashes / fingerprints of the content are retained.
  void registerSensitiveDocument(sec::SensitiveView text);

  /// Inspects (unless trafficEncrypted) and forwards; counts in
  /// bf_dlp_inspected_total and bf_dlp_flagged_total.
  browser::HttpResponse handle(const browser::HttpRequest& req) override;

  /// Inspection primitive, exposed for benches that bypass HTTP: would
  /// this text trip the appliance?
  [[nodiscard]] bool inspectText(sec::SensitiveView text) const;

 private:
  browser::RequestSink* upstream_;
  Config config_;
  text::FingerprintConfig fingerprintConfig_;
  // kExactChunks: FNV hashes of normalized chunks.
  std::unordered_set<std::uint64_t> chunkHashes_;
  // kFingerprint: one fingerprint per registered document.
  std::vector<text::Fingerprint> fingerprints_;
};

}  // namespace bf::cloud
