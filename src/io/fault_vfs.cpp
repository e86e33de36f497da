#include "io/fault_vfs.h"

#include <algorithm>

#include "obs/metrics.h"

namespace bf::io {

namespace {
struct StorageFaultMetrics {
  obs::Counter* ops;          // bf_storage_fault_ops_total
  obs::Counter* injected;     // bf_storage_fault_injected_total
  obs::Counter* enospc;       // bf_storage_fault_enospc_total
  obs::Counter* shortWrite;   // bf_storage_fault_short_write_total
  obs::Counter* tornWrite;    // bf_storage_fault_torn_write_total
  obs::Counter* fsyncFail;    // bf_storage_fault_fsync_fail_total
  obs::Counter* openFail;     // bf_storage_fault_open_fail_total
  obs::Counter* readCorrupt;  // bf_storage_fault_read_corrupt_total
};
const StorageFaultMetrics& storageFaultMetrics() {
  static const StorageFaultMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    return StorageFaultMetrics{
        &r.counter("bf_storage_fault_ops_total",
                   "Faultable operations that passed through FaultVfs"),
        &r.counter("bf_storage_fault_injected_total",
                   "Storage faults injected (all kinds)"),
        &r.counter("bf_storage_fault_enospc_total",
                   "Injected up-front write failures (disk full)"),
        &r.counter("bf_storage_fault_short_write_total",
                   "Injected detected short writes (prefix durable)"),
        &r.counter("bf_storage_fault_torn_write_total",
                   "Injected silent torn writes (lying disk)"),
        &r.counter("bf_storage_fault_fsync_fail_total",
                   "Injected fsync failures"),
        &r.counter("bf_storage_fault_open_fail_total",
                   "Injected file-open failures"),
        &r.counter("bf_storage_fault_read_corrupt_total",
                   "Injected read-side byte corruptions")};
  }();
  return m;
}

/// Which operation class can a fault kind fire on?
bool applicable(StorageFaultKind kind, bool isWrite, bool isSync, bool isOpen,
                bool isRead) {
  switch (kind) {
    case StorageFaultKind::kEnospc:
    case StorageFaultKind::kShortWrite:
    case StorageFaultKind::kTornWrite:
      return isWrite;
    case StorageFaultKind::kFsyncFail:
      return isSync;
    case StorageFaultKind::kOpenFail:
      return isOpen;
    case StorageFaultKind::kReadCorrupt:
      return isRead;
    case StorageFaultKind::kNone:
      return false;
  }
  return false;
}

}  // namespace

/// A write handle that consults its FaultVfs before each write/sync.
/// Lives in bf::io (not the anonymous namespace) so FaultVfs's friend
/// declaration applies.
class FaultFile final : public File {
 public:
  FaultFile(FaultVfs* owner, std::unique_ptr<File> inner, std::string path)
      : owner_(owner), inner_(std::move(inner)), path_(std::move(path)) {}

  WriteResult write(std::string_view data) override {
    const StorageFaultKind fault =
        owner_->pickFault(path_, FaultVfs::OpClass::kWrite);
    if (fault == StorageFaultKind::kNone) return inner_->write(data);
    owner_->recordFault(fault);
    if (fault == StorageFaultKind::kEnospc) return {false, 0};
    // Short and torn writes land a strict prefix on the inner file. A
    // short write is honest about the failure; a torn write lies and
    // claims the full buffer was accepted.
    const std::uint64_t prefix =
        data.empty() ? 0
                     : owner_->uniformBetween(
                           0, static_cast<std::uint64_t>(data.size()) - 1);
    const WriteResult innerResult =
        inner_->write(data.substr(0, static_cast<std::size_t>(prefix)));
    const std::size_t landed = innerResult.written;
    if (fault == StorageFaultKind::kShortWrite) return {false, landed};
    return {true, data.size()};  // kTornWrite
  }

  bool sync() override {
    const StorageFaultKind fault =
        owner_->pickFault(path_, FaultVfs::OpClass::kSync);
    if (fault == StorageFaultKind::kFsyncFail) {
      owner_->recordFault(fault);
      (void)inner_->sync();  // data may still land; the report is the lie
      return false;
    }
    return inner_->sync();
  }

  bool close() override { return inner_->close(); }

 private:
  FaultVfs* owner_;
  std::unique_ptr<File> inner_;
  std::string path_;
};

FaultVfs::FaultVfs(Vfs* inner, std::uint64_t seed,
                   StorageFaultConfig defaults)
    : inner_(inner), rng_(seed), defaults_(defaults) {}

void FaultVfs::setDefaults(StorageFaultConfig config) {
  util::MutexLock lock(mutex_);
  defaults_ = config;
}

void FaultVfs::failNext(const std::string& substring, int count,
                        StorageFaultKind kind) {
  util::MutexLock lock(mutex_);
  if (count > 0) scheduled_[substring].emplace_back(kind, count);
}

StorageFaultKind FaultVfs::pickFault(const std::string& path, OpClass op) {
  storageFaultMetrics().ops->inc();
  util::MutexLock lock(mutex_);
  return pickFaultLocked(path, op);
}

StorageFaultKind FaultVfs::pickFaultLocked(const std::string& path,
                                           OpClass op) {
  const bool isWrite = op == OpClass::kWrite;
  const bool isSync = op == OpClass::kSync;
  const bool isOpen = op == OpClass::kOpen;
  const bool isRead = op == OpClass::kRead;

  // 1. Scripted schedules beat probabilistic sampling (test determinism).
  //    A schedule is only consumed by an operation its front kind applies
  //    to — a queued fsync failure waits for the next sync(), it is never
  //    burned by an intervening write. Matching substrings are visited
  //    longest-first (ties lexicographic) for determinism.
  std::vector<std::string> keys;
  for (const auto& [key, queue] : scheduled_) {
    if (!queue.empty() && path.find(key) != std::string::npos) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() > b.size() : a < b;
  });
  for (const std::string& key : keys) {
    auto& queue = scheduled_[key];
    auto& [kind, remaining] = queue.front();
    if (!applicable(kind, isWrite, isSync, isOpen, isRead)) continue;
    const StorageFaultKind k = kind;
    if (--remaining <= 0) queue.pop_front();
    return k;
  }

  // 2. Probabilistic sampling: one uniform draw partitioned into
  //    cumulative intervals over the kinds applicable to this operation
  //    class, so the per-op fault probability is exactly the sum of the
  //    applicable per-kind probabilities.
  const StorageFaultConfig& cfg = defaults_;
  const double u = rng_.uniform01();
  double edge = 0.0;
  if (isWrite) {
    if (u < (edge += cfg.enospcProb)) return StorageFaultKind::kEnospc;
    if (u < (edge += cfg.shortWriteProb)) return StorageFaultKind::kShortWrite;
    if (u < (edge += cfg.tornWriteProb)) return StorageFaultKind::kTornWrite;
  } else if (isSync) {
    if (u < (edge += cfg.fsyncFailProb)) return StorageFaultKind::kFsyncFail;
  } else if (isOpen) {
    if (u < (edge += cfg.openFailProb)) return StorageFaultKind::kOpenFail;
  } else if (isRead) {
    if (u < (edge += cfg.readCorruptProb)) {
      return StorageFaultKind::kReadCorrupt;
    }
  }
  return StorageFaultKind::kNone;
}

std::uint64_t FaultVfs::uniformBetween(std::uint64_t lo, std::uint64_t hi) {
  util::MutexLock lock(mutex_);
  return rng_.uniform(lo, hi);
}

void FaultVfs::recordFault(StorageFaultKind kind) {
  const StorageFaultMetrics& m = storageFaultMetrics();
  m.injected->inc();
  switch (kind) {
    case StorageFaultKind::kEnospc:
      m.enospc->inc();
      break;
    case StorageFaultKind::kShortWrite:
      m.shortWrite->inc();
      break;
    case StorageFaultKind::kTornWrite:
      m.tornWrite->inc();
      break;
    case StorageFaultKind::kFsyncFail:
      m.fsyncFail->inc();
      break;
    case StorageFaultKind::kOpenFail:
      m.openFail->inc();
      break;
    case StorageFaultKind::kReadCorrupt:
      m.readCorrupt->inc();
      break;
    case StorageFaultKind::kNone:
      break;
  }
}

std::unique_ptr<File> FaultVfs::openForWrite(const std::string& path) {
  const StorageFaultKind fault = pickFault(path, OpClass::kOpen);
  if (fault == StorageFaultKind::kOpenFail) {
    recordFault(fault);
    return nullptr;
  }
  std::unique_ptr<File> inner = inner_->openForWrite(path);
  if (inner == nullptr) return nullptr;
  return std::make_unique<FaultFile>(this, std::move(inner), path);
}

util::Result<std::string> FaultVfs::readFile(const std::string& path) {
  const StorageFaultKind fault = pickFault(path, OpClass::kRead);
  util::Result<std::string> result = inner_->readFile(path);
  if (fault == StorageFaultKind::kReadCorrupt && result.ok() &&
      !result.value().empty()) {
    recordFault(fault);
    const std::uint64_t at = uniformBetween(
        0, static_cast<std::uint64_t>(result.value().size()) - 1);
    result.value()[static_cast<std::size_t>(at)] ^= 0x5a;
  }
  return result;
}

bool FaultVfs::rename(const std::string& from, const std::string& to) {
  return inner_->rename(from, to);
}

bool FaultVfs::remove(const std::string& path) { return inner_->remove(path); }

bool FaultVfs::mkdir(const std::string& path) { return inner_->mkdir(path); }

std::vector<std::string> FaultVfs::listDir(const std::string& dir) {
  return inner_->listDir(dir);
}

std::uint64_t FaultVfs::fileSize(const std::string& path) {
  return inner_->fileSize(path);
}

void FaultVfs::syncDir(const std::string& dir) { inner_->syncDir(dir); }

}  // namespace bf::io
