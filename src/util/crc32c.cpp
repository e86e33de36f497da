#include "util/crc32c.h"

#include <array>
#include <cstring>

#include "util/binary_io.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BF_CRC32C_HW_X86 1
#include <nmmintrin.h>
#endif

namespace bf::util {

namespace {

/// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // t[k][b]: CRC contribution of byte value b appearing k bytes before the
  // end of an 8-byte block (slicing-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t;
};

const Tables& tables() {
  static const Tables tbl = [] {
    Tables out{};
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      out.t[0][b] = crc;
    }
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = out.t[0][b];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = out.t[0][crc & 0xffu] ^ (crc >> 8);
        out.t[k][b] = crc;
      }
    }
    return out;
  }();
  return tbl;
}

#if defined(BF_CRC32C_HW_X86)
/// SSE4.2 CRC32 instruction path (same Castagnoli polynomial). Compiled
/// with a per-function target attribute so the translation unit itself
/// needs no -msse4.2; selected at runtime via cpuid.
__attribute__((target("sse4.2"))) std::uint32_t crc32cHw(
    const char* p, std::size_t n, std::uint32_t crc) noexcept {
  std::uint64_t c64 = crc;
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c64 = _mm_crc32_u64(c64, chunk);
    p += 8;
    n -= 8;
  }
  std::uint32_t c = static_cast<std::uint32_t>(c64);
  while (n-- > 0) {
    c = _mm_crc32_u8(c, static_cast<unsigned char>(*p++));
  }
  return c;
}

bool haveHwCrc32c() noexcept { return __builtin_cpu_supports("sse4.2"); }
#endif  // BF_CRC32C_HW_X86

}  // namespace

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) noexcept {
#if defined(BF_CRC32C_HW_X86)
  static const bool hw = haveHwCrc32c();
  if (hw) {
    return ~crc32cHw(data.data(), data.size(), ~seed);
  }
#endif
  const Tables& tbl = tables();
  std::uint32_t crc = ~seed;
  const char* p = data.data();
  std::size_t n = data.size();

  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);  // little-endian assumed (project-wide)
    crc ^= static_cast<std::uint32_t>(chunk);
    const std::uint32_t hi = static_cast<std::uint32_t>(chunk >> 32);
    crc = tbl.t[7][crc & 0xffu] ^ tbl.t[6][(crc >> 8) & 0xffu] ^
          tbl.t[5][(crc >> 16) & 0xffu] ^ tbl.t[4][crc >> 24] ^
          tbl.t[3][hi & 0xffu] ^ tbl.t[2][(hi >> 8) & 0xffu] ^
          tbl.t[1][(hi >> 16) & 0xffu] ^ tbl.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tbl.t[0][(crc ^ static_cast<unsigned char>(*p++)) & 0xffu] ^
          (crc >> 8);
  }
  return ~crc;
}

void appendCrc32cTrailer(std::string& out) {
  putU32(out, maskCrc32c(crc32c(out)));
}

bool crc32cTrailerValid(std::string_view framed) noexcept {
  if (framed.size() < 4) return false;
  const std::size_t body = framed.size() - 4;
  BinaryReader trailer(framed.substr(body));
  return unmaskCrc32c(trailer.u32()) == crc32c(framed.substr(0, body));
}

}  // namespace bf::util
