#include "flow/hash_db.h"

#include <algorithm>
#include <array>

#include "util/hashing.h"

namespace bf::flow {

namespace {
constexpr std::size_t kInitialSlots = 16;  // power of two
}  // namespace

std::size_t HashDb::homeSlot(std::uint64_t hash) const noexcept {
  // Stored hashes are often truncated to 32 bits; re-mix so high slots of
  // large tables stay uniformly used under linear probing.
  return static_cast<std::size_t>(util::mix64(hash)) & mask_;
}

void HashDb::prefetchSlot(std::uint64_t hash) const noexcept {
  if (!slots_.empty()) __builtin_prefetch(&slots_[homeSlot(hash)]);
}

std::size_t HashDb::probe(std::uint64_t hash) const noexcept {
  std::size_t idx = homeSlot(hash);
  while (slots_[idx].used() && slots_[idx].hash != hash) {
    idx = (idx + 1) & mask_;
  }
  return idx;
}

void HashDb::reserveForInsert() {
  if (slots_.empty()) {
    slots_.resize(kInitialSlots);
    mask_ = kInitialSlots - 1;
    return;
  }
  // Grow at ~70% load. Rehashing moves only the flat Slot structs; the
  // overflow pool is index-stable and untouched.
  if ((occupied_ + 1) * 10 < slots_.size() * 7) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (std::size_t i = 0; i < old.size(); ++i) {
    if (i + kSlotPrefetchDistance < old.size() &&
        old[i + kSlotPrefetchDistance].used()) {
      prefetchSlot(old[i + kSlotPrefetchDistance].hash);
    }
    if (old[i].used()) slots_[probe(old[i].hash)] = old[i];
  }
}

void HashDb::recordObservation(std::uint64_t hash, SegmentId segment,
                               util::Timestamp ts, util::Timestamp lastSeen) {
  const util::Timestamp seen = lastSeen != 0 ? lastSeen : ts;
  reserveForInsert();
  Slot& s = slots_[probe(hash)];
  if (!s.used()) {
    s.hash = hash;
    s.segment = segment;
    s.firstSeen = ts;
    s.setLastSeen(seen);
    s.overflow = kNoOverflow;
    ++occupied_;
    ++storedAssociations_;
    return;
  }
  // Idempotent per (hash, segment): keep the original first-seen timestamp
  // (provenance never changes retroactively) but advance the retention
  // stamp — re-observation marks the association hot.
  if (s.segment == segment) {
    s.setLastSeen(std::max(s.lastSeen(), seen));
    return;
  }
  if (s.overflow != kNoOverflow) {
    // Newest first: a segment appears at most once per history, and a
    // re-observed segment's entry is usually among the most recent.
    std::vector<Association>& rest = overflow_[s.overflow];
    for (auto it = rest.rbegin(); it != rest.rend(); ++it) {
      if (it->segment == segment) {
        it->lastSeen = std::max(it->lastSeen, seen);
        return;
      }
    }
  }

  if (s.overflow == kNoOverflow) {
    if (!overflowFree_.empty()) {
      s.overflow = overflowFree_.back();
      overflowFree_.pop_back();
      overflow_[s.overflow].clear();
    } else {
      s.overflow = static_cast<std::uint32_t>(overflow_.size());
      overflow_.emplace_back();
    }
  }
  std::vector<Association>& rest = overflow_[s.overflow];
  Association assoc{segment, ts, seen};
  if (ts < s.firstSeen) {
    // New oldest: it takes the inline seat; the previous oldest re-enters
    // the history at the front (it precedes everything in the overflow).
    const Association prev = s.inlineAssoc();
    s.setInlineAssoc(assoc);
    rest.insert(rest.begin(), prev);
  } else {
    // Timestamps come from a monotonic clock, so appends keep the history
    // sorted; guard anyway against out-of-order callers.
    if (!rest.empty() && rest.back().firstSeen > ts) {
      auto it = std::upper_bound(rest.begin(), rest.end(), ts,
                                 [](util::Timestamp t, const Association& a) {
                                   return t < a.firstSeen;
                                 });
      rest.insert(it, assoc);
    } else {
      rest.push_back(assoc);
    }
  }
  ++storedAssociations_;
}

void HashDb::recordFingerprint(std::span<const std::uint64_t> hashes,
                               SegmentId segment, util::Timestamp ts) {
  const std::size_t n = hashes.size();
  // Overflow index of hash j's slot, found at the header stage and read
  // back at the buffer stage; kNoOverflow when there is nothing to fetch.
  constexpr std::size_t kRing = 8;
  static_assert(
      kHistoryHeaderPrefetchDistance - kHistoryBufferPrefetchDistance < kRing);
  std::array<std::uint32_t, kRing> history;
  history.fill(kNoOverflow);

  for (std::size_t j = 0; j < std::min(n, kSlotPrefetchDistance); ++j) {
    prefetchSlot(hashes[j]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSlotPrefetchDistance < n) {
      prefetchSlot(hashes[i + kSlotPrefetchDistance]);
    }
    if (const std::size_t j = i + kHistoryHeaderPrefetchDistance; j < n) {
      // The slot was prefetched a stage ago. Its history is needed only
      // when the segment does not hold the inline seat. Overflow indices
      // are stable across the inserts in between (growth moves slots, not
      // histories).
      std::uint32_t& o = history[j % kRing];
      o = kNoOverflow;
      if (!slots_.empty()) {
        const Slot& s = slots_[probe(hashes[j])];
        if (s.used() && s.segment != segment) o = s.overflow;
      }
      if (o != kNoOverflow) __builtin_prefetch(&overflow_[o]);
    }
    if (const std::size_t j = i + kHistoryBufferPrefetchDistance; j < n) {
      if (const std::uint32_t o = history[j % kRing]; o != kNoOverflow) {
        const std::vector<Association>& rest = overflow_[o];
        if (!rest.empty()) __builtin_prefetch(&rest.back());
      }
    }
    recordObservation(hashes[i], segment, ts);
  }
}

std::optional<SegmentId> HashDb::oldestLive(const Slot& s) const {
  // The inline association IS the oldest owner — the common single-owner
  // case answers from this one slot.
  if (!isDead(s.segment)) return s.segment;
  if (s.overflow != kNoOverflow) {
    for (const Association& a : overflow_[s.overflow]) {
      if (!isDead(a.segment)) return a.segment;
    }
  }
  return std::nullopt;
}

void HashDb::oldestOwners(
    std::span<const std::uint64_t> hashes,
    std::vector<std::pair<SegmentId, std::uint64_t>>& claims) const {
  if (slots_.empty()) return;
  const std::size_t n = hashes.size();
  for (std::size_t j = 0; j < std::min(n, kSlotPrefetchDistance); ++j) {
    prefetchSlot(hashes[j]);
  }
  // Only the slot is prefetched: the history is read only when the inline
  // owner is dead, which removal compaction keeps rare.
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSlotPrefetchDistance < n) {
      prefetchSlot(hashes[i + kSlotPrefetchDistance]);
    }
    const Slot& s = slots_[probe(hashes[i])];
    if (!s.used()) continue;
    if (const auto owner = oldestLive(s)) {
      claims.emplace_back(*owner, hashes[i]);
    }
  }
}

std::optional<SegmentId> HashDb::oldestSegmentWith(std::uint64_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  return oldestLive(s);
}

std::vector<SegmentId> HashDb::segmentsWith(std::uint64_t hash) const {
  std::vector<SegmentId> out;
  if (slots_.empty()) return out;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return out;
  if (!isDead(s.segment)) out.push_back(s.segment);
  if (s.overflow != kNoOverflow) {
    const std::vector<Association>& rest = overflow_[s.overflow];
    out.reserve(out.size() + rest.size());
    for (const Association& a : rest) {
      if (!isDead(a.segment)) out.push_back(a.segment);
    }
  }
  return out;
}

std::optional<util::Timestamp> HashDb::firstSeen(std::uint64_t hash,
                                                 SegmentId segment) const {
  if (slots_.empty() || isDead(segment)) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  if (s.segment == segment) return s.firstSeen;
  if (s.overflow != kNoOverflow) {
    for (const Association& a : overflow_[s.overflow]) {
      if (a.segment == segment) return a.firstSeen;
    }
  }
  return std::nullopt;
}

std::optional<util::Timestamp> HashDb::lastSeen(std::uint64_t hash,
                                                SegmentId segment) const {
  if (slots_.empty() || isDead(segment)) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  if (s.segment == segment) return s.lastSeen();
  if (s.overflow != kNoOverflow) {
    for (const Association& a : overflow_[s.overflow]) {
      if (a.segment == segment) return a.lastSeen;
    }
  }
  return std::nullopt;
}

template <typename Keep>
std::size_t HashDb::rebuildFiltered(Keep&& keep) {
  std::vector<Slot> oldSlots = std::move(slots_);
  std::vector<std::vector<Association>> oldOverflow = std::move(overflow_);
  const std::size_t before = storedAssociations_;
  slots_.clear();
  overflow_.clear();
  overflowFree_.clear();
  mask_ = 0;
  occupied_ = 0;
  storedAssociations_ = 0;

  std::vector<Association> hist;
  for (const Slot& s : oldSlots) {
    if (!s.used()) continue;
    hist.clear();
    if (keep(s.inlineAssoc())) hist.push_back(s.inlineAssoc());
    if (s.overflow != kNoOverflow) {
      for (const Association& a : oldOverflow[s.overflow]) {
        if (keep(a)) hist.push_back(a);
      }
    }
    if (hist.empty()) continue;
    reserveForInsert();
    Slot& dst = slots_[probe(s.hash)];
    dst.hash = s.hash;
    dst.setInlineAssoc(hist.front());
    dst.overflow = kNoOverflow;
    if (hist.size() > 1) {
      dst.overflow = static_cast<std::uint32_t>(overflow_.size());
      overflow_.emplace_back(hist.begin() + 1, hist.end());
    }
    ++occupied_;
    storedAssociations_ += hist.size();
  }
  return before - storedAssociations_;
}

void HashDb::removeSegment(SegmentId segment) {
  dead_.insert(segment);
  ++removalGeneration_;
  if (dead_.size() > deadCompactionThreshold_) compactDead();
}

std::size_t HashDb::compactDead() {
  if (dead_.empty()) return 0;
  const std::size_t dropped =
      rebuildFiltered([this](const Association& a) { return !isDead(a.segment); });
  dead_.clear();
  return dropped;
}

std::size_t HashDb::evictOlderThan(util::Timestamp cutoff) {
  // Retention keys on lastSeen, NOT firstSeen: an association first seen
  // before the cutoff but re-observed since is hot and must survive.
  const std::size_t dropped = rebuildFiltered([&](const Association& a) {
    return a.lastSeen >= cutoff && !isDead(a.segment);
  });
  dead_.clear();  // every dead association was just physically purged
  ++removalGeneration_;
  return dropped;
}

}  // namespace bf::flow
