#include "flow/segment_db.h"

#include <cassert>

namespace bf::flow {

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
