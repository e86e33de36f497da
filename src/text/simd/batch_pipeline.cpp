#include "text/simd/batch_pipeline.h"

#include <algorithm>
#include <cstring>

namespace bf::text::simd {

bool BatchPipeline::init(const FingerprintConfig& config) {
  n = config.ngramChars;
  w = config.windowHashes();
  carryNeed = n + w;
  // A round must fit the carryover plus a useful amount of fresh work.
  if (carryNeed + 64 > kChunkChars) return false;

  ws.prepare(n, w);  // winnow scratch + selected_ reset

  // 32 bytes of tail slack: the vector compaction stores whole 8-lane
  // groups and lets the next group overwrite the invalid lanes; the final
  // group's overshoot lands in the slack.
  const std::size_t charCap = carryNeed + kChunkChars + 32;
  if (ws.batchChars_.size() < charCap) {
    ws.batchChars_.resize(charCap);
    ws.batchOff_.resize(charCap + 8);
  }
  if (ws.batchHashes_.size() < kChunkChars) {
    ws.batchHashes_.resize(kChunkChars);
    ws.batchWinKeys_.resize(kChunkChars);  // one winner slot per gram, worst case
  }
  // The packed winnow reads suffixMin_[rr + 1] unconditionally; slot w
  // holds the min identity so the block's last window (rr + 1 == w) needs
  // no branch. prepare() sized the vector to w — add the sentinel slot.
  if (ws.suffixMin_.size() < w + 1) ws.suffixMin_.resize(w + 1);
  ws.suffixMin_[w] = ~0ULL;

  pfx = ~0ULL;
  r = 0;
  lastSelected = static_cast<std::size_t>(-1);
  gramCount = 0;
  normTotal = 0;
  carry = 0;
  charBase = 0;
  validChars = 0;
  return true;
}

BatchPipeline::Round BatchPipeline::beginRound(std::size_t added) noexcept {
  validChars = carry + added;
  normTotal += added;
  Round round;
  const std::size_t target = normTotal >= n ? normTotal - n + 1 : 0;
  round.grams = target - gramCount;
  round.firstGramLocal = gramCount - charBase;
  return round;
}

void BatchPipeline::consumeHashes(std::size_t count, std::size_t from) {
  const std::uint64_t* hashes = ws.batchHashes_.data() + from;
  const std::uint32_t* offs = ws.batchOff_.data();

  if (count == 0) return;

  // Packed winnow — same key encoding and van Herk / Gil-Werman block
  // decomposition as the scalar kernel (see
  // fingerprint_kernel.cpp), restructured for batch throughput. Three
  // tricks keep the hot loop at ~17 instructions per gram, all
  // branchless:
  //   - identity sentinels kill both per-gram conditionals: pfx resets
  //     to ~0 whenever a block completes (min identity), and
  //     suffixMin_[w] holds ~0 so the last window of a block reads the
  //     sentinel instead of branching on rr + 1 == w;
  //   - the packed key's low half is a decrementing counter (~gram), so
  //     no per-gram index arithmetic survives in the loop;
  //   - each window stores only its raw 64-bit winner key; deduplication
  //     advances the length when the key's low half (the gram identity)
  //     changed, and a short drain pass afterwards materialises the
  //     ~2/(w+1) distinct picks into (hash, original offset) grams. The
  //     per-window offset lookup and struct store never happen.
  // Loop-carried state lives in locals: members are reached through
  // `this`, and the compiler cannot prove the winOut / blockKeys stores
  // don't alias them, so member accesses would put a store-forward
  // round trip on the pfx dependency chain every gram.
  std::uint64_t* blockKeys = ws.blockKeys_.data();
  const std::uint64_t* suffixMin = ws.suffixMin_.data();
  std::uint64_t* winOut = ws.batchWinKeys_.data();
  std::size_t outLen = 0;
  std::size_t k = 0;

  std::uint64_t pfxL = pfx;
  std::size_t rL = r;
  // lastSelected (a gram index) in winner-key low-half encoding.
  std::uint32_t lastWin =
      0xFFFFFFFFu - static_cast<std::uint32_t>(lastSelected);
  std::uint64_t invIdx =
      (0xFFFFFFFFULL - static_cast<std::uint32_t>(gramCount));
  const std::size_t wL = w;

  // Grams before the first full window (first rounds only): no pick yet.
  // rL < w - 1 throughout, so no block ever completes here.
  const std::size_t warm =
      gramCount + 1 >= wL ? 0 : std::min(count, wL - 1 - gramCount);
  for (; k < warm; ++k) {
    const std::uint64_t key = (hashes[k] << 32) | invIdx;
    --invIdx;
    pfxL = std::min(pfxL, key);
    blockKeys[rL] = key;
    ++rL;
  }

  while (k < count) {
    // Process up to the end of the current w-gram block so the inner
    // loop carries no block-completion test.
    const std::size_t take = std::min(count - k, wL - rL);
    for (std::size_t j = 0; j < take; ++j) {
      const std::uint64_t key = (hashes[k + j] << 32) | invIdx;
      --invIdx;
      pfxL = std::min(pfxL, key);
      blockKeys[rL + j] = key;
      const std::uint64_t winKey = std::min(suffixMin[rL + j + 1], pfxL);
      winOut[outLen] = winKey;
      outLen += static_cast<std::uint32_t>(winKey) != lastWin;
      lastWin = static_cast<std::uint32_t>(winKey);
    }
    k += take;
    rL += take;
    if (rL == wL) {
      // Backward suffix-minimum scan, split into two independent
      // half-chains (low half merged with the high half's total) to
      // halve the serial min-dependency latency.
      std::uint64_t* sfx = ws.suffixMin_.data();
      if (wL < 4) {
        sfx[wL - 1] = blockKeys[wL - 1];
        for (std::size_t j = wL - 1; j-- > 0;) {
          sfx[j] = std::min(blockKeys[j], sfx[j + 1]);
        }
      } else {
        const std::size_t h2 = wL / 2;
        sfx[wL - 1] = blockKeys[wL - 1];
        for (std::size_t j = wL - 1; j-- > h2;) {
          sfx[j] = std::min(blockKeys[j], sfx[j + 1]);
        }
        const std::uint64_t hiAll = sfx[h2];
        std::uint64_t run = blockKeys[h2 - 1];
        sfx[h2 - 1] = std::min(run, hiAll);
        for (std::size_t j = h2 - 1; j-- > 0;) {
          run = std::min(blockKeys[j], run);
          sfx[j] = std::min(run, hiAll);
        }
      }
      rL = 0;
      pfxL = ~0ULL;  // min identity: a fresh block has no prefix yet
    }
  }
  pfx = pfxL;
  r = rL;
  lastSelected = 0xFFFFFFFFULL - lastWin;

  // Drain pass: materialise the distinct winners. The carryover
  // guarantees pick >= charBase: the pick lags the newest gram by < w
  // and the buffer retains n + w characters.
  const std::size_t base = charBase;
  for (std::size_t i = 0; i < outLen; ++i) {
    const std::uint64_t key = winOut[i];
    const std::size_t pick =
        0xFFFFFFFFULL - static_cast<std::uint32_t>(key);
    ws.selected_.push_back({static_cast<Hash>(key >> 32), offs[pick - base]});
  }
  gramCount += count;
}

void BatchPipeline::endRound() noexcept {
  const std::size_t keep = std::min(validChars, carryNeed);
  const std::size_t dropped = validChars - keep;
  if (dropped > 0) {
    std::memmove(ws.batchChars_.data(), ws.batchChars_.data() + dropped, keep);
    std::memmove(ws.batchOff_.data(), ws.batchOff_.data() + dropped,
                 keep * sizeof(std::uint32_t));
    charBase += dropped;
  }
  carry = keep;
}

bool BatchPipeline::finish(const FingerprintConfig& config) const {
  return normTotal >= config.windowChars && !ws.selected_.empty();
}

}  // namespace bf::text::simd
