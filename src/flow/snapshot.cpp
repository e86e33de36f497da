#include "flow/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/mac.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/hashing.h"

namespace bf::flow {

namespace {

constexpr std::string_view kEncMagicV2 = "BFSNAPE2";
// BFSNAPP4 = plain unsequenced (exportState), BFSNAPS4 = sequenced + CRC
// trailer (saveSnapshot/checkpoints); both carry the v4 body.
constexpr std::string_view kPlainMagic = "BFSNAPP4";
constexpr std::string_view kSeqMagic = "BFSNAPS4";

crypto::Key256 deriveKey(std::string_view secret) {
  crypto::Key256 key{};
  std::uint64_t h = util::fnv1a64(secret);
  for (int i = 0; i < 4; ++i) {
    h = util::mix64(h + static_cast<std::uint64_t>(i) + 0xB0F1ULL);
    for (int b = 0; b < 8; ++b) {
      key[static_cast<std::size_t>(i * 8 + b)] =
          static_cast<std::uint8_t>(h >> (8 * b));
    }
  }
  return key;
}

/// Independent key for the integrity tag (encrypt-then-MAC wants distinct
/// cipher and MAC keys; the domain constant separates the derivations).
crypto::Key256 deriveMacKey(std::string_view secret) {
  crypto::Key256 key{};
  std::uint64_t h = util::mix64(util::fnv1a64(secret) ^ 0x4D414331ULL);  // "MAC1"
  for (int i = 0; i < 4; ++i) {
    h = util::mix64(h + static_cast<std::uint64_t>(i) + 0x7A61ULL);
    for (int b = 0; b < 8; ++b) {
      key[static_cast<std::size_t>(i * 8 + b)] =
          static_cast<std::uint8_t>(h >> (8 * b));
    }
  }
  return key;
}

/// Serialises the v4 state body (everything after the magic / sequence
/// header): segment records with their (u32 hash, u32 pos) grams, then
/// per kind the (u32 hash, u64 segment, u64 firstSeen) association rows.
void appendStateBody(const FlowTracker& tracker, std::string& out) {
  // Segments, ordered by id for determinism.
  std::vector<const SegmentRecord*> segments;
  tracker.segmentDb().forEach(
      [&](const SegmentRecord& rec) { segments.push_back(&rec); });
  std::sort(segments.begin(), segments.end(),
            [](const SegmentRecord* a, const SegmentRecord* b) {
              return a->id < b->id;
            });
  util::putU64(out, segments.size());
  for (const SegmentRecord* rec : segments) putSegmentRecord(out, *rec);

  // Associations per granularity, by hash and then by position in the
  // hash's history, which is firstSeen order with equal stamps in arrival
  // order: import re-inserts in that order, so the oldest owner among
  // equal stamps survives a round trip, whatever the slot layout.
  for (SegmentKind kind :
       {SegmentKind::kParagraph, SegmentKind::kDocument}) {
    struct Assoc {
      text::Hash hash;
      SegmentId segment;
      util::Timestamp ts;
    };
    std::vector<Assoc> assocs;
    tracker.hashDb().forEachAssociation(
        kind, [&](text::Hash hash, SegmentId segment, util::Timestamp ts) {
          assocs.push_back({hash, segment, ts});
        });
    std::stable_sort(
        assocs.begin(), assocs.end(),
        [](const Assoc& a, const Assoc& b) { return a.hash < b.hash; });
    util::putU64(out, assocs.size());
    for (const auto& a : assocs) {
      util::putU32(out, a.hash);
      util::putU64(out, a.segment);
      util::putU64(out, a.ts);
    }
  }
}

/// Fully parsed, validated state waiting to be applied (all-or-nothing).
struct StagedState {
  struct Assoc {
    SegmentKind kind;
    text::Hash hash;
    SegmentId segment;
    util::Timestamp ts;
  };
  std::vector<SegmentRecord> segments;
  std::vector<Assoc> assocs;
  util::Timestamp maxTs = 0;
};

/// Parses the v4 state body from `r` into `staged`. Returns an empty string
/// on success, an error message otherwise. Untrusted bytes are validated
/// here, BEFORE anything touches the tracker: enum bytes must name a known
/// SegmentKind and thresholds must be finite and in range
/// (readSegmentRecord) — a corrupt blob must never static_cast its way
/// into live records. Segment references
/// must be consistent: ids are nonzero (0 is the empty-slot marker of
/// HashDb) and unique, names unique, and every association names a listed
/// segment of its own kind.
std::string parseStateBody(util::BinaryReader& r, StagedState& staged) {
  std::unordered_map<SegmentId, SegmentKind> kindOf;
  std::unordered_set<std::string> names;
  const std::uint64_t segmentCount = r.u64();
  for (std::uint64_t i = 0; i < segmentCount && r.ok(); ++i) {
    SegmentRecord rec;
    if (std::string err = readSegmentRecord(r, rec); !err.empty()) {
      return err;
    }
    if (!r.ok()) break;
    staged.maxTs = std::max({staged.maxTs, rec.createdAt, rec.updatedAt});
    if (rec.id == kInvalidSegment) {
      return "segment id 0 for segment '" + rec.name + "'";
    }
    if (!kindOf.emplace(rec.id, rec.kind).second) {
      return "duplicate segment id " + std::to_string(rec.id);
    }
    if (!names.insert(rec.name).second) {
      return "duplicate segment name '" + rec.name + "'";
    }
    staged.segments.push_back(std::move(rec));
  }

  for (SegmentKind kind :
       {SegmentKind::kParagraph, SegmentKind::kDocument}) {
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      const text::Hash hash = r.u32();
      const SegmentId segment = r.u64();
      const util::Timestamp ts = r.u64();
      if (!r.ok()) break;
      const auto owner = kindOf.find(segment);
      if (owner == kindOf.end() || owner->second != kind) {
        return "association names segment " + std::to_string(segment) +
               ", not a listed segment of its kind";
      }
      staged.maxTs = std::max(staged.maxTs, ts);
      staged.assocs.push_back({kind, hash, segment, ts});
    }
  }

  if (!r.ok() || !r.atEnd()) return "snapshot truncated or corrupt";
  return {};
}

/// Crash-safe whole-file write: full content to a sibling temp file,
/// fsync, atomic rename over the target, then fsync the directory so the
/// rename itself is durable. A crash or disk-full mid-write can never
/// leave a truncated file at `path`, and EVERY failure path removes the
/// temp file — a save that fails (ENOSPC, short write, fsync error) leaves
/// no orphan and never clobbers the previous good snapshot, which only the
/// final rename replaces. The temp name is unique per process and per
/// call: concurrent saves to the same path must never share a temp file,
/// or interleaved writes could be renamed over the target.
util::Status atomicWriteFile(io::Vfs& vfs, const std::string& path,
                             std::string_view fileData) {
  static std::atomic<std::uint64_t> tmpCounter{0};
  const std::string tmpPath =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(tmpCounter.fetch_add(1, std::memory_order_relaxed));
  std::unique_ptr<io::File> file = vfs.openForWrite(tmpPath);
  if (file == nullptr) {
    return util::Status::error("cannot open for writing: " + tmpPath);
  }
  if (!file->write(fileData).ok) {
    (void)file->close();
    (void)vfs.remove(tmpPath);
    return util::Status::error("write failed: " + tmpPath);
  }
  if (!file->sync()) {
    (void)file->close();
    (void)vfs.remove(tmpPath);
    return util::Status::error("fsync failed: " + tmpPath);
  }
  if (!file->close()) {
    (void)vfs.remove(tmpPath);
    return util::Status::error("close failed: " + tmpPath);
  }
  if (!vfs.rename(tmpPath, path)) {
    (void)vfs.remove(tmpPath);
    return util::Status::error("rename failed: " + tmpPath + " -> " + path);
  }
  // Durable rename: fsync the containing directory (best effort — some
  // filesystems reject O_RDONLY directory fsync; the rename is still
  // atomic, just not yet journalled).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  vfs.syncDir(dir);
  return {};
}

}  // namespace

std::string exportState(const FlowTracker& tracker) {
  std::string out;
  out.append(kPlainMagic);
  appendStateBody(tracker, out);
  return out;
}

util::Result<SnapshotInfo> importState(FlowTracker& tracker,
                                       std::string_view blob) {
  using R = util::Result<SnapshotInfo>;
  if (tracker.segmentDb().size() != 0) {
    return R::error("importState requires an empty tracker");
  }
  // Restores are not logged: replaying a log of them would re-record each
  // segment's hashes at its updatedAt before the earlier first-seen stamps
  // that follow, and recover a different authority order.
  if (tracker.walAttached()) {
    return R::error("importState requires a tracker without a WAL attached");
  }

  SnapshotInfo info;
  std::string_view body;
  if (blob.substr(0, kSeqMagic.size()) == kSeqMagic) {
    // Sequenced: magic + u64 sequence + body + u32 masked CRC trailer.
    constexpr std::size_t kHeader = 8 + 8;
    if (blob.size() < kHeader + 4) return R::error("snapshot truncated");
    if (!util::crc32cTrailerValid(blob)) {
      return R::error("snapshot CRC mismatch");
    }
    util::BinaryReader seqReader(blob.substr(kHeader - 8, 8));
    info.sequence = seqReader.u64();
    body = blob.substr(kHeader, blob.size() - kHeader - 4);
  } else if (blob.substr(0, kPlainMagic.size()) == kPlainMagic) {
    // Plain: magic + body, no trailer, sequence 0.
    body = blob.substr(kPlainMagic.size());
  } else {
    return R::error("not a BrowserFlow snapshot (bad magic)");
  }

  // Parse the ENTIRE body into staging structures before touching the
  // tracker, so a truncated or corrupt snapshot leaves it empty (all or
  // nothing) instead of half-restored.
  util::BinaryReader r(body);
  StagedState staged;
  if (std::string err = parseStateBody(r, staged); !err.empty()) {
    return R::error(err);
  }
  info.maxTimestamp = staged.maxTs;

  // Validated end to end — now apply.
  for (SegmentRecord& rec : staged.segments) {
    tracker.restoreSegment(std::move(rec));
  }
  for (const StagedState::Assoc& a : staged.assocs) {
    tracker.restoreAssociation(a.kind, a.hash, a.segment, a.ts);
  }
  return info;
}

util::Status writeSealedFile(io::Vfs& vfs, const std::string& path,
                             std::string_view payload,
                             std::string_view secret) {
  if (secret.empty()) return atomicWriteFile(vfs, path, payload);
  std::string fileData;
  fileData.append(kEncMagicV2);
  // Nonce derived from content + secret: state files are whole-file
  // rewrites, so nonce reuse would require identical (content, secret) —
  // which produces identical ciphertext, leaking nothing new.
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
  // Encrypt-then-MAC: the tag covers magic, nonce and ciphertext, so any
  // bit flip anywhere in the envelope fails verification BEFORE the
  // malleable stream cipher could smuggle altered plaintext to the parser.
  const crypto::Tag128 tag = crypto::keyedTag(deriveMacKey(secret), fileData);
  fileData.append(reinterpret_cast<const char*>(tag.data()), tag.size());
  return atomicWriteFile(vfs, path, fileData);
}

util::Result<std::string> readSealedFile(io::Vfs& vfs, const std::string& path,
                                         std::string_view secret) {
  using R = util::Result<std::string>;
  util::Result<std::string> read = vfs.readFile(path);
  if (!read.ok()) return R::error("cannot open: " + path);
  std::string fileData = std::move(read.value());
  if (fileData.substr(0, kEncMagicV2.size()) != kEncMagicV2) return fileData;

  if (secret.empty()) return R::error("state file is encrypted; secret needed");
  const std::size_t header = kEncMagicV2.size();
  if (fileData.size() < header + 12 + sizeof(crypto::Tag128)) {
    return R::error("state file truncated");
  }
  // Authenticate the whole envelope before decrypting anything.
  const std::size_t tagOffset = fileData.size() - sizeof(crypto::Tag128);
  crypto::Tag128 stored{};
  std::memcpy(stored.data(), fileData.data() + tagOffset, stored.size());
  const crypto::Tag128 actual = crypto::keyedTag(
      deriveMacKey(secret), std::string_view(fileData).substr(0, tagOffset));
  if (!crypto::tagEquals(stored, actual)) {
    return R::error("state file authentication failed (corrupt or wrong key)");
  }
  crypto::Nonce96 nonce{};
  std::memcpy(nonce.data(), fileData.data() + header, nonce.size());
  return crypto::chacha20Xor(
      std::string_view(fileData).substr(header + 12, tagOffset - header - 12),
      deriveKey(secret), nonce);
}

util::Status saveSnapshot(const FlowTracker& tracker, const std::string& path,
                          std::string_view secret, std::uint64_t sequence,
                          io::Vfs* vfs) {
  std::string blob;
  blob.append(kSeqMagic);
  util::putU64(blob, sequence);
  appendStateBody(tracker, blob);
  util::appendCrc32cTrailer(blob);
  return writeSealedFile(vfs != nullptr ? *vfs : io::defaultVfs(), path, blob,
                         secret);
}

util::Result<SnapshotInfo> loadSnapshot(FlowTracker& tracker,
                                        const std::string& path,
                                        std::string_view secret, io::Vfs* vfs) {
  using R = util::Result<SnapshotInfo>;
  const util::Result<std::string> blob =
      readSealedFile(vfs != nullptr ? *vfs : io::defaultVfs(), path, secret);
  if (!blob.ok()) return R::error(blob.errorMessage());
  return importState(tracker, blob.value());
}

}  // namespace bf::flow
