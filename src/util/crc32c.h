// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum framing every
// durable disclosure-state file uses (flow/wal.cpp frames, snapshot v3
// trailers). CRC32C is the standard choice for storage framing (iSCSI,
// ext4, LevelDB/RocksDB log records): it detects all burst errors up to 32
// bits and any odd number of bit flips, which is exactly the torn-write /
// bit-rot failure mode recovery must distinguish from a clean end-of-log.
//
// Software slicing-by-8 table implementation; deterministic across
// platforms (the tables are generated at first use from the reflected
// polynomial, not compiled in).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace bf::util {

/// CRC32C of `data`, continuing from `seed` (pass a previous crc32c result
/// to checksum a logical stream in pieces; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32c(std::string_view data,
                                   std::uint32_t seed = 0) noexcept;

/// Masked CRC in the LevelDB/RocksDB style: storing a CRC of data that
/// itself embeds CRCs would make accidental collisions more likely, so
/// stored checksums are rotated and offset. Frames store maskCrc32c(crc)
/// and verify via unmaskCrc32c.
[[nodiscard]] constexpr std::uint32_t maskCrc32c(std::uint32_t crc) noexcept {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
[[nodiscard]] constexpr std::uint32_t unmaskCrc32c(
    std::uint32_t masked) noexcept {
  const std::uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

/// Appends maskCrc32c(crc32c(out)) to `out` as a 4-byte little-endian
/// trailer: the framing of sequenced snapshots and deployment files.
void appendCrc32cTrailer(std::string& out);

/// True when `framed` ends in the trailer appendCrc32cTrailer() writes for
/// the bytes before it.
[[nodiscard]] bool crc32cTrailerValid(std::string_view framed) noexcept;

}  // namespace bf::util
