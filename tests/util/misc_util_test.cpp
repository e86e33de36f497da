// Coverage for the remaining util pieces: stopwatch, binary IO.
#include <gtest/gtest.h>

#include <thread>

#include "util/binary_io.h"
#include "util/stopwatch.h"

namespace bf::util {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double ms = watch.elapsedMillis();
  EXPECT_GE(ms, 4.0);
  EXPECT_LT(ms, 2000.0);
  EXPECT_NEAR(watch.elapsedMicros(), watch.elapsedMillis() * 1000.0,
              watch.elapsedMicros() * 0.5);
  watch.reset();
  EXPECT_LT(watch.elapsedMillis(), ms);
}

TEST(BinaryIo, PrimitivesRoundTrip) {
  std::string buf;
  putU8(buf, 0xAB);
  putU32(buf, 0xDEADBEEF);
  putU64(buf, 0x0123456789ABCDEFULL);
  putF64(buf, 3.14159);
  putStr(buf, "hello \0 world");

  BinaryReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello ");  // string literal stops at embedded NUL
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(BinaryIo, EmbeddedNulSurvivesExplicitLength) {
  std::string buf;
  putStr(buf, std::string_view("a\0b", 3));
  BinaryReader r(buf);
  const std::string s = r.str();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1], '\0');
}

TEST(BinaryIo, UnderrunSetsErrorAndSticksThere) {
  std::string buf;
  putU32(buf, 7);
  BinaryReader r(buf);
  EXPECT_EQ(r.u64(), 0u);  // needs 8 bytes, only 4 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIo, HugeStringLengthRejected) {
  std::string buf;
  putU64(buf, 1ULL << 60);  // claims an absurd length
  buf += "short";
  BinaryReader r(buf);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace bf::util
