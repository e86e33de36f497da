// bf_e2e — end-to-end verdict benchmark for BrowserFlow.
//
//   bf_e2e --workload <docs_typing|paste_upload> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 the per-layer ones. Exits 1 when a
// correctness check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "workloads.h"

namespace {

const char* kernelTierName(double tier) {
  switch (static_cast<int>(tier)) {
    case 1: return "sse42";
    case 2: return "avx2";
    case 3: return "avx512";
    default: return "scalar";
  }
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bf_e2e: %s\nusage: bf_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) return usage("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  bool known = false;
  for (const std::string& name : e2e::workloadNames()) known |= name == o.workload;
  if (!known) return usage(("unknown workload '" + o.workload + "'").c_str());

  e2e::Report r;
  try {
    r = e2e::runWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bf_e2e: %s\n", e.what());
    return 1;
  }

  std::printf("# bf_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# host: cores=%u kernel_tier=%s build_type=%s rank_checks=%s\n",
              std::thread::hardware_concurrency(),
              kernelTierName(bf::obs::registry().gauge("bf_kernel_dispatch").value()),
              BF_E2E_BUILD_TYPE, BF_LOCK_RANK_CHECKS ? "on" : "off");
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const e2e::Metric& m : r.metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& v : r.violations) {
    std::printf("# VIOLATION: %s\n", v.c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const e2e::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += jsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + jsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
