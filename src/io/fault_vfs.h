// FaultVfs: a Vfs decorator that makes storage misbehave on purpose.
//
// The storage counterpart of cloud::FaultInjector — PR 2 proved the
// network path degrades gracefully by injecting deterministic, seeded
// network faults; this class does the same for the durability path.
// It wraps any Vfs (normally the PosixVfs) and injects:
//
//   kEnospc      write fails, no bytes reach the inner file (disk full
//                detected up front);
//   kShortWrite  a prefix reaches the inner file, then the write FAILS
//                (ENOSPC mid-buffer) — detectable by the caller;
//   kTornWrite   a prefix reaches the inner file but the write reports
//                SUCCESS — the lying-disk case, detectable only by
//                recovery-time CRC validation;
//   kFsyncFail   fsync returns failure (data may or may not be durable);
//   kOpenFail    openForWrite returns null;
//   kReadCorrupt readFile succeeds but one byte is flipped.
//
// Fault selection is per-operation from a seeded Rng; deterministic
// failNext() schedules let tests script exact failure sequences (e.g. "the
// next 2 fsyncs on any .bfw segment fail"). Everything is metered via
// bf::obs (bf_storage_fault_*).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/vfs.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace bf::io {

enum class StorageFaultKind : std::uint8_t {
  kNone = 0,
  kEnospc,
  kShortWrite,
  kTornWrite,
  kFsyncFail,
  kOpenFail,
  kReadCorrupt,
};

/// Fault probabilities per operation. Kinds are sampled in declaration
/// order; at most one fault fires per operation.
struct StorageFaultConfig {
  double enospcProb = 0.0;
  double shortWriteProb = 0.0;
  double tornWriteProb = 0.0;
  double fsyncFailProb = 0.0;
  double openFailProb = 0.0;
  double readCorruptProb = 0.0;

  /// Spreads `rate` evenly over the write-side kinds (enospc, short,
  /// torn, fsync-fail) — the chaos-test / bench workhorse. Open and read
  /// faults are scripted explicitly where a test wants them.
  [[nodiscard]] static StorageFaultConfig uniformRate(double rate) {
    StorageFaultConfig c;
    c.enospcProb = c.shortWriteProb = c.tornWriteProb = c.fsyncFailProb =
        rate / 4.0;
    return c;
  }
};

class FaultVfs final : public Vfs {
 public:
  /// Wraps `inner` (not owned); `seed` drives fault sampling.
  FaultVfs(Vfs* inner, std::uint64_t seed, StorageFaultConfig defaults = {});

  /// Replaces the fault profile.
  void setDefaults(StorageFaultConfig config) BF_EXCLUDES(mutex_);

  /// Deterministically fails the next `count` operations of `kind`'s class
  /// on paths containing `substring`, ahead of probabilistic sampling. A
  /// schedule is only consumed by operations it can apply to (write kinds
  /// by write(), kFsyncFail by sync(), kOpenFail by openForWrite(),
  /// kReadCorrupt by readFile()). Schedules queue in call order.
  void failNext(const std::string& substring, int count, StorageFaultKind kind)
      BF_EXCLUDES(mutex_);

  // Vfs. Fault selection runs under the decorator's mutex (rank
  // kRankStorageFault, below the WAL mutex); the inner Vfs is dispatched
  // to outside the critical section.
  [[nodiscard]] std::unique_ptr<File> openForWrite(
      const std::string& path) override BF_EXCLUDES(mutex_);
  [[nodiscard]] util::Result<std::string> readFile(
      const std::string& path) override BF_EXCLUDES(mutex_);
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override;
  bool remove(const std::string& path) override;
  [[nodiscard]] bool mkdir(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> listDir(
      const std::string& dir) override;
  [[nodiscard]] std::uint64_t fileSize(const std::string& path) override;
  void syncDir(const std::string& dir) override;

 private:
  friend class FaultFile;

  /// The operation class a fault pick is being made for; schedules and
  /// probabilistic draws only yield kinds applicable to it.
  enum class OpClass : std::uint8_t { kWrite, kSync, kOpen, kRead };

  [[nodiscard]] StorageFaultKind pickFault(const std::string& path,
                                           OpClass op) BF_EXCLUDES(mutex_);
  [[nodiscard]] StorageFaultKind pickFaultLocked(const std::string& path,
                                                 OpClass op)
      BF_REQUIRES(mutex_);
  /// Uniform draw in [lo, hi] for shaping short/torn prefixes.
  [[nodiscard]] std::uint64_t uniformBetween(std::uint64_t lo,
                                             std::uint64_t hi)
      BF_EXCLUDES(mutex_);
  void recordFault(StorageFaultKind kind);

  Vfs* inner_;
  mutable util::Mutex mutex_{util::kRankStorageFault, "FaultVfs.mutex_"};
  util::Rng rng_ BF_GUARDED_BY(mutex_);
  StorageFaultConfig defaults_ BF_GUARDED_BY(mutex_);
  std::unordered_map<std::string,
                     std::deque<std::pair<StorageFaultKind, int>>>
      scheduled_ BF_GUARDED_BY(mutex_);
};

}  // namespace bf::io
