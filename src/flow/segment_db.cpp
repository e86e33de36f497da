#include "flow/segment_db.h"

#include <algorithm>
#include <cassert>

namespace bf::flow {

void putSegmentRecord(std::string& out, const SegmentRecord& rec) {
  util::putU64(out, rec.id);
  util::putU8(out, static_cast<std::uint8_t>(rec.kind));
  util::putStr(out, rec.name);
  util::putStr(out, rec.document);
  util::putStr(out, rec.service);
  util::putF64(out, rec.threshold);
  util::putU64(out, rec.createdAt);
  util::putU64(out, rec.updatedAt);
  const auto& grams = rec.fingerprint.grams();
  util::putU64(out, grams.size());
  for (const auto& g : grams) {
    util::putU32(out, g.hash);
    util::putU32(out, g.pos);
  }
}

std::string readSegmentRecord(util::BinaryReader& r, SegmentRecord& rec) {
  // Untrusted bytes: a kind byte or threshold no live record may carry is
  // rejected before it is cast or stored.
  rec.id = r.u64();
  const std::uint8_t kindByte = r.u8();
  if (r.ok() && !validKindByte(kindByte)) {
    return "unknown SegmentKind byte " + std::to_string(kindByte);
  }
  rec.kind = static_cast<SegmentKind>(kindByte);
  rec.name = r.str();
  rec.document = r.str();
  rec.service = r.str();
  rec.threshold = r.f64();
  if (r.ok() && !validThreshold(rec.threshold)) {
    return "threshold out of range for segment '" + rec.name + "'";
  }
  rec.createdAt = r.u64();
  rec.updatedAt = r.u64();
  const std::uint64_t gramCount = r.u64();
  std::vector<text::HashedGram> grams;
  // Cap the reserve: a corrupt length prefix must not force a huge
  // allocation before the bounds-checked reads catch it.
  grams.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(gramCount, 1u << 20)));
  for (std::uint64_t g = 0; g < gramCount && r.ok(); ++g) {
    const text::Hash hash = r.u32();
    grams.push_back({hash, r.u32()});
  }
  rec.fingerprint = text::Fingerprint::fromSelected(std::move(grams));
  return {};
}

SegmentId SegmentDb::create(SegmentKind kind, std::string name,
                            std::string document, std::string service,
                            double threshold, util::Timestamp now) {
  assert(byName_.find(name) == byName_.end() && "segment name must be unique");
  const SegmentId id = nextId_++;
  SegmentRecord rec;
  rec.id = id;
  rec.kind = kind;
  rec.name = name;
  rec.document = std::move(document);
  rec.service = std::move(service);
  rec.threshold = threshold;
  rec.createdAt = now;
  rec.updatedAt = now;
  byName_.emplace(std::move(name), id);
  byId_.emplace(id, std::move(rec));
  return id;
}

void SegmentDb::updateFingerprint(SegmentId id, text::Fingerprint fp,
                                  util::Timestamp now) {
  auto it = byId_.find(id);
  if (it == byId_.end()) return;
  it->second.fingerprint = std::move(fp);
  it->second.updatedAt = now;
}

void SegmentDb::setThreshold(SegmentId id, double threshold) {
  auto it = byId_.find(id);
  if (it != byId_.end()) it->second.threshold = threshold;
}

const SegmentRecord* SegmentDb::find(SegmentId id) const {
  auto it = byId_.find(id);
  return it == byId_.end() ? nullptr : &it->second;
}

const SegmentRecord* SegmentDb::findByName(std::string_view name) const {
  auto it = byName_.find(std::string(name));
  return it == byName_.end() ? nullptr : find(it->second);
}

void SegmentDb::restore(SegmentRecord record) {
  assert(record.id != kInvalidSegment);
  assert(byId_.find(record.id) == byId_.end() && "id already in use");
  assert(byName_.find(record.name) == byName_.end() && "name already in use");
  if (record.id >= nextId_) nextId_ = record.id + 1;
  byName_.emplace(record.name, record.id);
  byId_.emplace(record.id, std::move(record));
}

void SegmentDb::remove(SegmentId id) {
  auto it = byId_.find(id);
  if (it == byId_.end()) return;
  byName_.erase(it->second.name);
  byId_.erase(it);
}

}  // namespace bf::flow
