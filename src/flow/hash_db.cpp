#include "flow/hash_db.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <new>

#include "obs/metrics.h"
#include "util/hashing.h"
#include "util/stopwatch.h"

namespace bf::flow {

namespace {
constexpr std::size_t kInitialSlots = 16;  // power of two

struct StepMetrics {
  obs::Histogram* growMs;
  obs::Histogram* compactMs;
};

const StepMetrics& stepMetrics() {
  static const StepMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    StepMetrics out;
    out.growMs = &r.histogram(
        "bf_tracker_dbhash_grow_ms",
        "Wall time of each DBhash slot-table doubling (inside the insert "
        "that crossed 70% load, under the tracker lock)");
    out.compactMs = &r.histogram(
        "bf_tracker_dbhash_compact_ms",
        "Wall time of each DBhash dead-segment compaction (inside the "
        "removal that crossed the threshold, under the tracker lock)");
    return out;
  }();
  return m;
}
}  // namespace

std::size_t HashDb::homeSlot(text::Hash hash) const noexcept {
  // Re-mix the 32-bit hash so every slot bit of a large table is uniformly
  // used under linear probing.
  return static_cast<std::size_t>(util::mix64(hash)) & mask_;
}

HashDb::~HashDb() { std::free(slots_.data()); }

void HashDb::prefetchSlot(text::Hash hash) const noexcept {
  // Only the first line, though a quarter of the slots straddle two: a
  // second prefetch per hash halved bench_micro_fingerprint's batch rate.
  // Unconditional: behind an emptiness check GCC 12 at -O3 dropped it
  // where it was inlined (recordFingerprint kept 2 of 20, oldestOwners
  // none).
  __builtin_prefetch(slots_.data() + homeSlot(hash));
}

std::size_t HashDb::probe(text::Hash hash) const noexcept {
  return probeFrom(hash, homeSlot(hash));
}

std::size_t HashDb::probeFrom(text::Hash hash,
                              std::size_t idx) const noexcept {
  while (slots_[idx].hash != hash && slots_[idx].used()) {
    idx = (idx + 1) & mask_;
  }
  return idx;
}

void HashDb::rebuild(std::size_t capacity) {
  // Only the flat Slot structs move; the history pool is index-stable and
  // untouched.
  auto* block = static_cast<Slot*>(std::calloc(capacity, sizeof(Slot)));
  if (block == nullptr) throw std::bad_alloc();
  const std::span<Slot> old = std::exchange(slots_, {block, capacity});
  mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.used()) slots_[probe(s.hash)] = s;
  }
  std::free(old.data());
}

template <typename Keep>
void HashDb::replaceClusters(std::size_t oldSize, Keep keep) {
  const std::size_t oldMask = oldSize - 1;
  const auto used = [this](std::size_t i) { return slots_[i].used(); };
  // Start at the first slot of the cluster that holds slot 0; it wraps
  // when slot oldSize - 1 is used too. The load stays below 70%, so some
  // slot is empty.
  std::size_t i = 0;
  if (used(0)) {
    while (used((i - 1) & oldMask)) i = (i - 1) & oldMask;
  }
  occupied_ = 0;
  std::vector<Slot> cluster;
  for (std::size_t left = oldSize; left != 0;) {
    for (; left != 0 && !used(i); i = (i + 1) & oldMask) --left;
    cluster.clear();
    for (; left != 0 && used(i); i = (i + 1) & oldMask, --left) {
      cluster.push_back(slots_[i]);
      slots_[i] = Slot{};
    }
    for (Slot& s : cluster) {
      if (!keep(s)) continue;
      slots_[probe(s.hash)] = s;
      ++occupied_;
    }
  }
}

void HashDb::grow() {
  const util::Stopwatch watch;
  const std::size_t n = slots_.size();
  auto* block =
      static_cast<Slot*>(std::realloc(slots_.data(), 2 * n * sizeof(Slot)));
  if (block == nullptr) throw std::bad_alloc();
  std::fill_n(block + n, n, Slot{});
  slots_ = {block, 2 * n};
  mask_ = 2 * n - 1;
  replaceClusters(n, [](const Slot&) { return true; });
  stepMetrics().growMs->observe(watch.elapsedMillis());
}

HashDb::Entry HashDb::HistoryPool::encode(const Association& a) {
  if (a.segment < Entry::kEscaped && a.firstSeen <= 0xffffffffu) {
    return {static_cast<std::uint32_t>(a.segment),
            static_cast<std::uint32_t>(a.firstSeen)};
  }
  assert(escapes.size() < 0xffffffffu);
  escapes.push_back({a.segment, a.firstSeen});
  return {Entry::kEscaped, static_cast<std::uint32_t>(escapes.size() - 1)};
}

std::uint32_t HashDb::HistoryPool::allocate(std::uint32_t capacity) {
  assert(std::has_single_bit(capacity));
  std::uint32_t& head = freeHeads[std::countr_zero(capacity)];
  if (head != kEndOfList) {
    const std::uint32_t begin = head;
    head = at(begin)->segment;
    return begin;
  }
  if (capacity > kBlockEntries) {
    // One allocation behind consecutive block-table entries, so pool
    // indices stay contiguous across the run. The current block stays
    // open for shorter runs.
    assert(blocks.size() + capacity / kBlockEntries <=
           (kEndOfList >> kBlockShift));
    const auto begin = static_cast<std::uint32_t>(blocks.size() << kBlockShift);
    chunks.push_back(std::make_unique_for_overwrite<Entry[]>(capacity));
    for (std::uint32_t off = 0; off < capacity; off += kBlockEntries) {
      blocks.push_back(chunks.back().get() + off);
    }
    return begin;
  }
  if (bumpEnd - bump < capacity) {
    // Open a new block; what is left of the current one goes to the free
    // lists in power-of-two pieces.
    for (std::uint32_t left = bumpEnd - bump; left != 0;) {
      const std::uint32_t piece = std::bit_floor(left);
      release(bump, piece);
      bump += piece;
      left -= piece;
    }
    assert(blocks.size() < (kEndOfList >> kBlockShift));
    chunks.push_back(std::make_unique_for_overwrite<Entry[]>(kBlockEntries));
    blocks.push_back(chunks.back().get());
    bump = static_cast<std::uint32_t>((blocks.size() - 1) << kBlockShift);
    bumpEnd = bump + kBlockEntries;
  }
  const std::uint32_t begin = bump;
  bump += capacity;
  return begin;
}

void HashDb::HistoryPool::release(std::uint32_t begin,
                                  std::uint32_t capacity) noexcept {
  std::uint32_t& head = freeHeads[std::countr_zero(capacity)];
  at(begin)->segment = head;
  head = begin;
}

std::uint32_t HashDb::HistoryPool::addRun(
    std::span<const Association> history) {
  assert(!history.empty() && runs.size() < Head::kSpilled);
  const auto size = static_cast<std::uint32_t>(history.size());
  const std::uint32_t begin = allocate(std::bit_ceil(size));
  Entry* out = at(begin);
  for (const Association& a : history) *out++ = encode(a);
  runs.push_back({begin, size});
  return static_cast<std::uint32_t>(runs.size() - 1);
}

void HashDb::HistoryPool::insert(std::uint32_t run, std::size_t pos,
                                 const Association& a) {
  const Entry entry = encode(a);
  Run& r = runs[run];
  Entry* base = at(r.begin);
  if (std::has_single_bit(r.size)) {  // full: move to twice the space
    assert(r.size < 0x80000000u);
    const std::uint32_t grown = allocate(r.size * 2);
    Entry* dst = at(grown);
    std::copy(base, base + pos, dst);
    std::copy(base + pos, base + r.size, dst + pos + 1);
    release(r.begin, r.size);
    r.begin = grown;
    base = dst;
  } else {
    std::copy_backward(base + pos, base + r.size, base + r.size + 1);
  }
  base[pos] = entry;
  ++r.size;
}

std::size_t HashDb::memoryBytes() const noexcept {
  return slots_.size() * sizeof(Slot) +
         pool_.runs.capacity() * sizeof(Run) +
         pool_.blocks.size() * HistoryPool::kBlockEntries * sizeof(Entry) +
         pool_.escapes.capacity() * sizeof(Wide);
}

void HashDb::assign(Head& h, std::span<const Association> history) {
  if (history.size() == 1 && fitsCompact(history.front())) {
    h.owner = static_cast<std::uint32_t>(history.front().segment);
    h.word = static_cast<std::uint32_t>(history.front().firstSeen);
  } else {
    h.owner = cachedOwner(history.front().segment);
    h.word = Head::kSpilled | pool_.addRun(history);
  }
}

void HashDb::beginRecord(SegmentId segment, util::Timestamp ts) noexcept {
  // Raised before any insert: should an insert throw partway, a later call
  // for this segment must not take it for a first record.
  scanFloor_ = segment > maxRecorded_ ? ts : 0;
  maxRecorded_ = std::max(maxRecorded_, segment);
}

void HashDb::recordObservation(SegmentKind kind, text::Hash hash,
                               SegmentId segment, util::Timestamp ts) {
  beginRecord(segment, ts);
  if (slots_.empty()) rebuild(kInitialSlots);
  (void)recordFrom(kind, hash, Association{segment, ts}, homeSlot(hash));
}

bool HashDb::recordFrom(SegmentKind kind, text::Hash hash,
                        const Association& assoc, std::size_t from) {
  const SegmentId segment = assoc.segment;
  assert(segment != kInvalidSegment);
  const util::Timestamp ts = assoc.firstSeen;
  KindCounts& counts = perKind_[kindIndex(kind)];
  std::size_t at = probeFrom(hash, from);
  bool grows = false;
  if (!slots_[at].used()) {
    // A hash new to both kinds. The table grows at ~70% load, and only
    // here, so a call that adds no hash leaves the table as it was.
    grows = (occupied_ + 1) * 10 >= slots_.size() * 7;
    if (grows) {
      grow();
      at = probe(hash);
    }
    slots_[at].hash = hash;
    ++occupied_;
  }
  Head& h = slots_[at].heads[kindIndex(kind)];
  if (!h.used()) {
    assign(h, {&assoc, 1});
    ++counts.distinct;
    ++counts.associations;
    return grows;
  }
  if (!h.spilled()) {
    // Idempotent per (hash, segment): the original first-seen timestamp
    // stays, and so does the compact head.
    const Association only{h.owner, h.word};
    if (only.segment == segment) return false;
    // A second owner; a strictly older one becomes the front.
    const std::array<Association, 2> pair =
        ts < only.firstSeen ? std::array{assoc, only} : std::array{only, assoc};
    assign(h, pair);
    ++counts.associations;
    return false;
  }

  const std::uint32_t run = h.runIndex();
  const std::span<Entry> history = pool_.entries(run);
  // A segment appears at most once per history, so a held one is left as
  // it is. The cached owner finds the front directly; otherwise scan newest
  // first, since a re-observed segment's entry is usually among the most
  // recent. The history is sorted by firstSeen, so the scan stops below
  // scanFloor_.
  if (segment < kOwnerInHistory && h.owner == segment) return false;
  for (auto it = history.rbegin();
       it != history.rend() && pool_.firstSeenOf(*it) >= scanFloor_; ++it) {
    if (pool_.segmentOf(*it) == segment) return false;
  }
  // Timestamps come from a monotonic clock, so appends keep the history
  // sorted; guard anyway against out-of-order callers. Equal stamps keep
  // arrival order.
  std::size_t pos = history.size();
  if (pool_.firstSeenOf(history.back()) > ts) {
    pos = static_cast<std::size_t>(
        std::upper_bound(history.begin(), history.end(), ts,
                         [this](util::Timestamp t, const Entry& e) {
                           return t < pool_.firstSeenOf(e);
                         }) -
        history.begin());
    if (pos == 0) h.owner = cachedOwner(segment);
  }
  pool_.insert(run, pos, assoc);
  ++counts.associations;
  return false;
}

void HashDb::recordFingerprint(SegmentKind kind,
                               std::span<const text::Hash> hashes,
                               SegmentId segment, util::Timestamp ts) {
  beginRecord(segment, ts);
  const std::size_t n = hashes.size();
  if (n == 0) return;
  if (slots_.empty()) rebuild(kInitialSlots);
  const Association assoc{segment, ts};
  // For hash j, the slot its probe reached at the header stage and the run
  // index of that slot's head (kNone when there is nothing to fetch), read
  // back at the entry and insert stages. The slot stays a valid start for
  // the insert's probe while the table keeps its size, since slots are
  // never vacated: if another hash filled it since, every slot from the
  // home slot up to it holds another hash. When an insert grows the table,
  // the hashes whose header stage already ran start over from their home
  // slots.
  constexpr std::uint32_t kNone = 0xffffffffu;
  constexpr std::size_t kRing = 16;
  static_assert(kRunHeaderPrefetchDistance < kRing);
  std::array<std::size_t, kRing> slotOf{};
  std::array<std::uint32_t, kRing> runOf;
  runOf.fill(kNone);
  for (std::size_t j = 0; j < std::min(n, kRunHeaderPrefetchDistance); ++j) {
    slotOf[j] = homeSlot(hashes[j]);
  }
  for (std::size_t j = 0; j < std::min(n, kSlotPrefetchDistance); ++j) {
    prefetchSlot(hashes[j]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSlotPrefetchDistance < n) {
      prefetchSlot(hashes[i + kSlotPrefetchDistance]);
    }
    if (const std::size_t j = i + kRunHeaderPrefetchDistance; j < n) {
      // The slot was prefetched a stage ago. Only a spilled head has a run
      // to fetch; run indices are stable across the inserts in between.
      const std::size_t at = probe(hashes[j]);
      const Head& h = slots_[at].heads[kindIndex(kind)];
      slotOf[j % kRing] = at;
      std::uint32_t& r = runOf[j % kRing];
      r = h.used() && h.spilled() ? h.runIndex() : kNone;
      if (r != kNone) __builtin_prefetch(&pool_.runs[r]);
    }
    if (const std::size_t j = i + kRunEntryPrefetchDistance; j < n) {
      if (const std::uint32_t r = runOf[j % kRing]; r != kNone) {
        const Run& run = pool_.runs[r];
        __builtin_prefetch(pool_.at(run.begin + run.size - 1));
      }
    }
    if (recordFrom(kind, hashes[i], assoc, slotOf[i % kRing])) {
      const std::size_t end = std::min(n, i + kRunHeaderPrefetchDistance + 1);
      for (std::size_t j = i + 1; j < end; ++j) {
        slotOf[j % kRing] = homeSlot(hashes[j]);
      }
    }
  }
}

std::optional<SegmentId> HashDb::oldestLive(const Head& h) const {
  // The head's owner IS the oldest — the common case answers from the
  // slot, spilled or not.
  if (h.owner != kOwnerInHistory && !isDead(h.owner)) return h.owner;
  if (!h.spilled()) return std::nullopt;
  for (const Entry& e : pool_.entries(h.runIndex())) {
    const SegmentId segment = pool_.segmentOf(e);
    if (!isDead(segment)) return segment;
  }
  return std::nullopt;
}

const HashDb::Head* HashDb::findHead(SegmentKind kind,
                                     text::Hash hash) const noexcept {
  if (slots_.empty()) return nullptr;
  const Head& h = slots_[probe(hash)].heads[kindIndex(kind)];
  return h.used() ? &h : nullptr;
}

void HashDb::oldestOwners(
    SegmentKind kind, std::span<const text::Hash> hashes,
    std::vector<std::pair<SegmentId, text::Hash>>& claims) const {
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
    const Head& h = slots_[probe(hashes[i])].heads[kindIndex(kind)];
    if (!h.used()) continue;
    if (const auto owner = oldestLive(h)) {
      claims.emplace_back(*owner, hashes[i]);
    }
  }
}

std::optional<SegmentId> HashDb::oldestSegmentWith(SegmentKind kind,
                                                   text::Hash hash) const {
  const Head* h = findHead(kind, hash);
  return h != nullptr ? oldestLive(*h) : std::nullopt;
}

std::vector<SegmentId> HashDb::segmentsWith(SegmentKind kind,
                                            text::Hash hash) const {
  std::vector<SegmentId> out;
  if (const Head* h = findHead(kind, hash)) {
    forEachIn(pool_, *h, [&](const Association& a) {
      if (!isDead(a.segment)) out.push_back(a.segment);
    });
  }
  return out;
}

std::optional<util::Timestamp> HashDb::firstSeen(SegmentKind kind,
                                                 text::Hash hash,
                                                 SegmentId segment) const {
  std::optional<util::Timestamp> out;
  const Head* h = findHead(kind, hash);
  if (h == nullptr || isDead(segment)) return out;
  forEachIn(pool_, *h, [&](const Association& a) {
    if (a.segment == segment) out = a.firstSeen;
  });
  return out;
}

void HashDb::removeSegment(SegmentKind kind, SegmentId segment) {
  dead_.insert(segment);
  deadBits_[(segment >> 6) & 63] |= std::uint64_t{1} << (segment & 63);
  ++perKind_[kindIndex(kind)].removalGeneration;
  if (dead_.size() > deadCompactionThreshold_) compactDead();
}

std::size_t HashDb::compactDead() {
  if (dead_.empty()) return 0;
  const std::size_t before =
      perKind_[0].associations + perKind_[1].associations;
  if (!slots_.empty()) {
    // The survivors are re-placed in the table they are in and their
    // histories packed into a fresh pool (the old one is freed on return);
    // the table then shrinks to the size that inserting them one by one
    // would grow it to, which is usually the size it has.
    const util::Stopwatch watch;
    const HistoryPool old = std::exchange(pool_, HistoryPool{});
    for (KindCounts& c : perKind_) c.distinct = c.associations = 0;
    std::vector<Association> history;  // one head's survivors
    replaceClusters(slots_.size(), [&](Slot& s) {
      for (std::size_t k = 0; k < s.heads.size(); ++k) {
        Head& h = s.heads[k];
        if (!h.used()) continue;
        history.clear();
        forEachIn(old, h, [&](const Association& a) {
          if (!isDead(a.segment)) history.push_back(a);
        });
        h = Head{};
        if (history.empty()) continue;
        assign(h, history);
        ++perKind_[k].distinct;
        perKind_[k].associations += history.size();
      }
      return s.used();
    });
    std::size_t capacity = kInitialSlots;
    while (occupied_ * 10 >= capacity * 7) capacity *= 2;
    if (occupied_ == 0) {
      std::free(std::exchange(slots_, {}).data());
      mask_ = 0;
    } else if (capacity != slots_.size()) {
      rebuild(capacity);
    }
    stepMetrics().compactMs->observe(watch.elapsedMillis());
  }
  dead_.clear();
  deadBits_.fill(0);
  return before - perKind_[0].associations - perKind_[1].associations;
}

}  // namespace bf::flow
