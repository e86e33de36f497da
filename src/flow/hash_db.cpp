#include "flow/hash_db.h"

#include <algorithm>
#include <array>
#include <cassert>

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
  // history pool is index-stable and untouched.
  if ((occupied_ + 1) * 10 < slots_.size() * 7) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.used()) slots_[probe(s.hash)] = s;
  }
}

void HashDb::spill(Slot& s, std::vector<Association>&& history) {
  assert(histories_.size() < Slot::kSpilled);
  s.owner = cachedOwner(history.front().segment);
  s.word = Slot::kSpilled | static_cast<std::uint32_t>(histories_.size());
  histories_.push_back(std::move(history));
}

void HashDb::recordObservation(std::uint64_t hash, SegmentId segment,
                               util::Timestamp ts, util::Timestamp lastSeen) {
  assert(segment != kInvalidSegment);
  const Association assoc{segment, ts,
                          std::max(lastSeen != 0 ? lastSeen : ts, ts)};
  reserveForInsert();
  Slot& s = slots_[probe(hash)];
  if (!s.used()) {
    s.hash = hash;
    if (fitsCompact(assoc)) {
      s.owner = static_cast<std::uint32_t>(segment);
      s.word = static_cast<std::uint32_t>(ts);
    } else {
      spill(s, {assoc});
    }
    ++occupied_;
    ++storedAssociations_;
    return;
  }
  if (!s.spilled()) {
    const Association only{s.owner, s.word, s.word};
    if (only.segment == segment) {
      // Idempotent per (hash, segment): keep the original first-seen
      // timestamp (provenance never changes retroactively) but advance the
      // retention stamp — re-observation marks the association hot.
      if (assoc.lastSeen > only.lastSeen) {
        spill(s, {Association{segment, only.firstSeen, assoc.lastSeen}});
      }
      return;
    }
    // A second owner; a strictly older one becomes the front.
    spill(s, ts < only.firstSeen ? std::vector<Association>{assoc, only}
                                 : std::vector<Association>{only, assoc});
    ++storedAssociations_;
    return;
  }

  std::vector<Association>& history = histories_[s.historyIndex()];
  // A segment appears at most once per history. The cached owner finds the
  // front directly; otherwise scan newest first, since a re-observed
  // segment's entry is usually among the most recent.
  Association* held = nullptr;
  if (segment < kOwnerInHistory && s.owner == segment) {
    held = &history.front();
  } else {
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      if (it->segment == segment) {
        held = &*it;
        break;
      }
    }
  }
  if (held != nullptr) {
    held->lastSeen = std::max(held->lastSeen, assoc.lastSeen);
    return;
  }
  // Timestamps come from a monotonic clock, so appends keep the history
  // sorted; guard anyway against out-of-order callers. Equal stamps keep
  // arrival order.
  if (history.back().firstSeen <= ts) {
    history.push_back(assoc);
  } else {
    const auto it = std::upper_bound(
        history.begin(), history.end(), ts,
        [](util::Timestamp t, const Association& a) {
          return t < a.firstSeen;
        });
    if (it == history.begin()) s.owner = cachedOwner(segment);
    history.insert(it, assoc);
  }
  ++storedAssociations_;
}

void HashDb::recordFingerprint(std::span<const std::uint64_t> hashes,
                               SegmentId segment, util::Timestamp ts) {
  const std::size_t n = hashes.size();
  // History index of hash j's slot, found at the header stage and read
  // back at the buffer stage; kNone when there is nothing to fetch.
  constexpr std::uint32_t kNone = 0xffffffffu;
  constexpr std::size_t kRing = 8;
  static_assert(
      kHistoryHeaderPrefetchDistance - kHistoryBufferPrefetchDistance < kRing);
  std::array<std::uint32_t, kRing> history;
  history.fill(kNone);

  for (std::size_t j = 0; j < std::min(n, kSlotPrefetchDistance); ++j) {
    prefetchSlot(hashes[j]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSlotPrefetchDistance < n) {
      prefetchSlot(hashes[i + kSlotPrefetchDistance]);
    }
    if (const std::size_t j = i + kHistoryHeaderPrefetchDistance; j < n) {
      // The slot was prefetched a stage ago. Only a spilled slot has a
      // history to fetch. History indices are stable across the inserts
      // in between (growth moves slots, not histories).
      std::uint32_t& h = history[j % kRing];
      h = kNone;
      if (!slots_.empty()) {
        const Slot& s = slots_[probe(hashes[j])];
        if (s.used() && s.spilled()) h = s.historyIndex();
      }
      if (h != kNone) __builtin_prefetch(&histories_[h]);
    }
    if (const std::size_t j = i + kHistoryBufferPrefetchDistance; j < n) {
      if (const std::uint32_t h = history[j % kRing]; h != kNone) {
        __builtin_prefetch(&histories_[h].back());
      }
    }
    recordObservation(hashes[i], segment, ts);
  }
}

std::optional<SegmentId> HashDb::oldestLive(const Slot& s) const {
  // The slot's owner IS the oldest — the common case answers from this one
  // slot, spilled or not.
  if (s.owner != kOwnerInHistory && !isDead(s.owner)) return s.owner;
  if (!s.spilled()) return std::nullopt;
  for (const Association& a : histories_[s.historyIndex()]) {
    if (!isDead(a.segment)) return a.segment;
  }
  return std::nullopt;
}

std::optional<HashDb::Association> HashDb::find(std::uint64_t hash,
                                                SegmentId segment) const {
  if (slots_.empty() || isDead(segment)) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  if (!s.spilled()) {
    if (s.owner != segment) return std::nullopt;
    return Association{segment, s.word, s.word};
  }
  for (const Association& a : histories_[s.historyIndex()]) {
    if (a.segment == segment) return a;
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
  // Only the slot is prefetched: the history is read only when the cached
  // owner is dead or does not fit, which removal compaction keeps rare.
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
  if (!s.spilled()) {
    if (!isDead(s.owner)) out.push_back(s.owner);
    return out;
  }
  const std::vector<Association>& history = histories_[s.historyIndex()];
  out.reserve(history.size());
  for (const Association& a : history) {
    if (!isDead(a.segment)) out.push_back(a.segment);
  }
  return out;
}

std::optional<util::Timestamp> HashDb::firstSeen(std::uint64_t hash,
                                                 SegmentId segment) const {
  if (const auto a = find(hash, segment)) return a->firstSeen;
  return std::nullopt;
}

std::optional<util::Timestamp> HashDb::lastSeen(std::uint64_t hash,
                                                SegmentId segment) const {
  if (const auto a = find(hash, segment)) return a->lastSeen;
  return std::nullopt;
}

template <typename Keep>
std::size_t HashDb::rebuildFiltered(Keep&& keep) {
  std::vector<Slot> oldSlots = std::move(slots_);
  std::vector<std::vector<Association>> oldHistories = std::move(histories_);
  const std::size_t before = storedAssociations_;
  slots_.clear();
  histories_.clear();
  mask_ = 0;
  occupied_ = 0;
  storedAssociations_ = 0;

  for (const Slot& s : oldSlots) {
    if (!s.used()) continue;
    if (!s.spilled()) {
      if (!keep(Association{s.owner, s.word, s.word})) continue;
      reserveForInsert();
      slots_[probe(s.hash)] = s;
      ++occupied_;
      ++storedAssociations_;
      continue;
    }
    std::vector<Association>& history = oldHistories[s.historyIndex()];
    std::erase_if(history, [&](const Association& a) { return !keep(a); });
    if (history.empty()) continue;
    reserveForInsert();
    ++occupied_;
    storedAssociations_ += history.size();
    Slot& dst = slots_[probe(s.hash)];
    dst.hash = s.hash;
    if (history.size() == 1 && fitsCompact(history.front())) {
      dst.owner = static_cast<std::uint32_t>(history.front().segment);
      dst.word = static_cast<std::uint32_t>(history.front().firstSeen);
    } else {
      spill(dst, std::move(history));
    }
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
  dead_.clear();
  ++removalGeneration_;
  return dropped;
}

}  // namespace bf::flow
