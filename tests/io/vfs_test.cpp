// Tests for the bf::io VFS seam: PosixVfs round-trips against the real
// filesystem, and FaultVfs injects exactly the faults its schedules and
// probabilities describe (the storage counterpart of
// cloud/fault_injector_test.cpp).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "counter_delta.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "obs/metrics.h"

namespace bf::io {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  VfsTest() {
    dir_ = "/tmp/bf_vfs_test_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
    ::mkdir(dir_.c_str(), 0755);
  }

  ~VfsTest() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(VfsTest, PosixRoundTrip) {
  Vfs& vfs = defaultVfs();
  auto file = vfs.openForWrite(path("a.bin"));
  ASSERT_NE(file, nullptr);
  const WriteResult w = file->write("hello ");
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(w.written, 6u);
  EXPECT_TRUE(file->write("world").ok);
  EXPECT_TRUE(file->sync());
  EXPECT_TRUE(file->close());
  EXPECT_TRUE(file->close());  // idempotent

  auto read = vfs.readFile(path("a.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "hello world");
  EXPECT_EQ(vfs.fileSize(path("a.bin")), 11u);
}

TEST_F(VfsTest, PosixRenameRemoveListDir) {
  Vfs& vfs = defaultVfs();
  {
    auto f = vfs.openForWrite(path("from.tmp"));
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(f->write("x").ok);
    ASSERT_TRUE(f->close());
  }
  EXPECT_TRUE(vfs.rename(path("from.tmp"), path("to.bin")));
  EXPECT_FALSE(vfs.readFile(path("from.tmp")).ok());
  EXPECT_TRUE(vfs.readFile(path("to.bin")).ok());

  std::vector<std::string> names = vfs.listDir(dir_);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "to.bin");

  EXPECT_TRUE(vfs.remove(path("to.bin")));
  EXPECT_TRUE(vfs.listDir(dir_).empty());
  EXPECT_EQ(vfs.fileSize(path("to.bin")), 0u);  // missing → 0
}

TEST_F(VfsTest, PosixMkdirIsIdempotent) {
  Vfs& vfs = defaultVfs();
  const std::string sub = path("sub");
  EXPECT_TRUE(vfs.mkdir(sub));
  EXPECT_TRUE(vfs.mkdir(sub));  // EEXIST is success
  vfs.syncDir(sub);             // best-effort, must not crash
}

TEST_F(VfsTest, PosixOpenForWriteFailsOnBadPath) {
  Vfs& vfs = defaultVfs();
  EXPECT_EQ(vfs.openForWrite(path("missing-dir/f.bin")), nullptr);
  EXPECT_FALSE(vfs.readFile(path("nope.bin")).ok());
}

TEST_F(VfsTest, FaultEnospcFailsWriteWithNothingLanded) {
  const testutil::CounterDelta faults;
  FaultVfs fault(&defaultVfs(), /*seed=*/1);
  fault.failNext(".bfw", 1, StorageFaultKind::kEnospc);
  auto f = fault.openForWrite(path("seg.bfw"));
  ASSERT_NE(f, nullptr);
  const WriteResult w = f->write("0123456789");
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.written, 0u);
  ASSERT_TRUE(f->close());
  EXPECT_EQ(defaultVfs().fileSize(path("seg.bfw")), 0u);
  // The schedule is consumed: the next write succeeds.
  auto f2 = fault.openForWrite(path("seg.bfw"));
  ASSERT_NE(f2, nullptr);
  EXPECT_TRUE(f2->write("0123456789").ok);
  EXPECT_EQ(faults("bf_storage_fault_injected_total"), 1u);
}

TEST_F(VfsTest, FaultShortWriteLandsStrictPrefixAndReportsFailure) {
  FaultVfs fault(&defaultVfs(), /*seed=*/2);
  fault.failNext("seg", 1, StorageFaultKind::kShortWrite);
  auto f = fault.openForWrite(path("seg.bfw"));
  ASSERT_NE(f, nullptr);
  const std::string data(64, 'A');
  const WriteResult w = f->write(data);
  EXPECT_FALSE(w.ok);
  EXPECT_LT(w.written, data.size());
  ASSERT_TRUE(f->sync());
  const std::uint64_t onDisk = defaultVfs().fileSize(path("seg.bfw"));
  EXPECT_EQ(onDisk, w.written);  // honest about what landed
  EXPECT_LT(onDisk, data.size());
}

TEST_F(VfsTest, FaultTornWriteLandsPrefixButClaimsSuccess) {
  FaultVfs fault(&defaultVfs(), /*seed=*/3);
  fault.failNext("seg", 1, StorageFaultKind::kTornWrite);
  auto f = fault.openForWrite(path("seg.bfw"));
  ASSERT_NE(f, nullptr);
  const std::string data(64, 'B');
  const WriteResult w = f->write(data);
  EXPECT_TRUE(w.ok);                  // the lie
  EXPECT_EQ(w.written, data.size());  // claims everything
  ASSERT_TRUE(f->sync());
  EXPECT_LT(defaultVfs().fileSize(path("seg.bfw")), data.size());
}

TEST_F(VfsTest, FaultFsyncScheduleIsNotBurnedByWrites) {
  FaultVfs fault(&defaultVfs(), /*seed=*/4);
  fault.failNext("seg", 1, StorageFaultKind::kFsyncFail);
  auto f = fault.openForWrite(path("seg.bfw"));
  ASSERT_NE(f, nullptr);
  // Writes pass through untouched; the queued fsync failure waits.
  EXPECT_TRUE(f->write("abc").ok);
  EXPECT_TRUE(f->write("def").ok);
  EXPECT_FALSE(f->sync());
  EXPECT_TRUE(f->sync());  // consumed
  EXPECT_EQ(defaultVfs().fileSize(path("seg.bfw")), 6u);  // data still landed
}

TEST_F(VfsTest, FaultOpenFailReturnsNull) {
  FaultVfs fault(&defaultVfs(), /*seed=*/5);
  fault.failNext(".tmp", 1, StorageFaultKind::kOpenFail);
  EXPECT_EQ(fault.openForWrite(path("snap.tmp")), nullptr);
  // Non-matching paths are unaffected, and the schedule is consumed.
  EXPECT_NE(fault.openForWrite(path("other.bin")), nullptr);
  EXPECT_NE(fault.openForWrite(path("snap.tmp")), nullptr);
}

TEST_F(VfsTest, FaultReadCorruptFlipsExactlyOneByte) {
  Vfs& posix = defaultVfs();
  {
    auto f = posix.openForWrite(path("blob.bin"));
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(f->write(std::string(128, 'Z')).ok);
    ASSERT_TRUE(f->close());
  }
  FaultVfs fault(&posix, /*seed=*/6);
  fault.failNext("blob", 1, StorageFaultKind::kReadCorrupt);
  auto corrupted = fault.readFile(path("blob.bin"));
  ASSERT_TRUE(corrupted.ok());
  const std::string& got = corrupted.value();
  ASSERT_EQ(got.size(), 128u);
  int diffs = 0;
  for (char c : got) {
    if (c != 'Z') ++diffs;
  }
  EXPECT_EQ(diffs, 1);
  // Clean read afterwards.
  auto clean = fault.readFile(path("blob.bin"));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value(), std::string(128, 'Z'));
}

TEST_F(VfsTest, UniformRateZeroInjectsNothing) {
  const testutil::CounterDelta faults;
  FaultVfs fault(&defaultVfs(), /*seed=*/8,
                 StorageFaultConfig::uniformRate(0.0));
  auto f = fault.openForWrite(path("quiet.bin"));
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f->write("0123456789").ok);
  }
  ASSERT_TRUE(f->sync());
  EXPECT_EQ(faults("bf_storage_fault_injected_total"), 0u);
  EXPECT_EQ(defaultVfs().fileSize(path("quiet.bin")), 2000u);
}

TEST_F(VfsTest, UniformRateInjectsRoughlyThatFraction) {
  const testutil::CounterDelta faults;
  FaultVfs fault(&defaultVfs(), /*seed=*/9,
                 StorageFaultConfig::uniformRate(0.5));
  auto f = fault.openForWrite(path("noisy.bin"));
  ASSERT_NE(f, nullptr);
  const int kWrites = 400;
  for (int i = 0; i < kWrites; ++i) (void)f->write("0123456789");
  // ~50% of writes fault; allow a generous band for the seeded stream.
  const std::uint64_t injected = faults("bf_storage_fault_injected_total");
  EXPECT_GT(injected, static_cast<std::uint64_t>(kWrites) * 3 / 10);
  EXPECT_LT(injected, static_cast<std::uint64_t>(kWrites) * 7 / 10);
}

TEST_F(VfsTest, FaultMetricsCountInjections) {
  const auto before = obs::registry().snapshot();
  FaultVfs fault(&defaultVfs(), /*seed=*/10);
  fault.failNext("m.bin", 1, StorageFaultKind::kEnospc);
  fault.failNext("m.bin", 1, StorageFaultKind::kFsyncFail);
  auto f = fault.openForWrite(path("m.bin"));
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->write("x").ok);
  EXPECT_FALSE(f->sync());
  const auto delta = obs::registry().snapshot().diff(before);
  EXPECT_GE(delta.counterValue("bf_storage_fault_injected_total"), 2u);
  EXPECT_GE(delta.counterValue("bf_storage_fault_enospc_total"), 1u);
  EXPECT_GE(delta.counterValue("bf_storage_fault_fsync_fail_total"), 1u);
  EXPECT_GE(delta.counterValue("bf_storage_fault_ops_total"), 3u);
}

TEST_F(VfsTest, SameSeedSameFaultSequence) {
  auto run = [this](std::uint64_t seed) {
    FaultVfs fault(&defaultVfs(), seed, StorageFaultConfig::uniformRate(0.3));
    std::string pattern;
    auto f = fault.openForWrite(path("det.bin"));
    if (f == nullptr) return std::string("openfail");
    for (int i = 0; i < 100; ++i) {
      pattern += f->write("0123456789").ok ? '.' : 'X';
    }
    return pattern;
  };
  const std::string a = run(1234);
  const std::string b = run(1234);
  const std::string c = run(4321);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide
}

}  // namespace
}  // namespace bf::io
