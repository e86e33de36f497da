#include "text/aho_corasick.h"

#include <algorithm>

namespace bf::text {

AhoCorasick::AhoCorasick() {
  for (int b = 0; b < 256; ++b) {
    inputMap_[static_cast<std::size_t>(b)] = static_cast<unsigned char>(b);
  }
}

AhoCorasick::AhoCorasick(const std::array<unsigned char, 256>& inputMap)
    : inputMap_(inputMap), skipZero_(true) {}

void AhoCorasick::addPattern(std::string_view pattern, std::uint64_t id) {
  if (pattern.empty()) return;
  patternList_.emplace_back(std::string(pattern), id);
  maxPatternLength_ = std::max(maxPatternLength_, pattern.size());
  built_ = false;
}

void AhoCorasick::build() {
  // Byte classes: one symbol per distinct pattern byte, symbol 0 for every
  // byte no pattern contains (it always leads back towards the root).
  std::array<std::uint32_t, 256> symbolOf{};
  std::uint32_t symbols = 1;
  for (const auto& entry : patternList_) {
    for (unsigned char c : entry.first) {
      if (symbolOf[c] == 0) symbolOf[c] = symbols++;
    }
  }

  // The trie over symbols; -1 = no child yet.
  std::vector<std::int32_t> next(symbols, -1);
  std::vector<std::vector<Output>> outs(1);
  for (const auto& [pattern, id] : patternList_) {
    std::size_t node = 0;
    for (unsigned char c : pattern) {
      std::int32_t& slot = next[node * symbols + symbolOf[c]];
      if (slot < 0) {
        slot = static_cast<std::int32_t>(outs.size());
        outs.emplace_back();
        next.resize(outs.size() * symbols, -1);
      }
      node = static_cast<std::size_t>(next[node * symbols + symbolOf[c]]);
    }
    outs[node].push_back(Output{id, pattern.size()});
  }

  // The standard BFS: define every transition (the DFA conversion) and
  // fold each state's suffix outputs into its own. Every state enters the
  // queue once, so a flat vector with a read cursor is the whole queue.
  const std::size_t states = outs.size();
  std::vector<std::size_t> fail(states, 0);
  std::vector<std::size_t> queue;
  queue.reserve(states);
  for (std::uint32_t s = 0; s < symbols; ++s) {
    std::int32_t& child = next[s];
    if (child < 0) {
      child = 0;
    } else {
      queue.push_back(static_cast<std::size_t>(child));
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    outs[u].insert(outs[u].end(), outs[fail[u]].begin(), outs[fail[u]].end());
    for (std::uint32_t s = 0; s < symbols; ++s) {
      const std::int32_t failNext = next[fail[u] * symbols + s];
      std::int32_t& child = next[u * symbols + s];
      if (child < 0) {
        child = failNext;
      } else {
        fail[static_cast<std::size_t>(child)] =
            static_cast<std::size_t>(failNext);
        queue.push_back(static_cast<std::size_t>(child));
      }
    }
  }

  // Flatten: the symbol columns, plus a self-loop column for skipped bytes.
  const std::uint32_t skipColumn = symbols;
  columns_ = skipZero_ ? symbols + 1 : symbols;
  for (int b = 0; b < 256; ++b) {
    const unsigned char mapped = inputMap_[static_cast<std::size_t>(b)];
    columnOf_[static_cast<std::size_t>(b)] =
        skipZero_ && mapped == 0 ? skipColumn : symbolOf[mapped];
  }
  delta_.assign(states * columns_, 0);
  outputStart_.assign(states + 1, 0);
  outputs_.clear();
  for (std::size_t u = 0; u < states; ++u) {
    const auto row = static_cast<std::uint32_t>(u * columns_);
    for (std::uint32_t s = 0; s < symbols; ++s) {
      const auto target = static_cast<std::size_t>(next[u * symbols + s]);
      delta_[row + s] =
          static_cast<std::uint32_t>(target * columns_) << 1 |
          (outs[target].empty() ? 0U : 1U);
    }
    if (skipZero_) delta_[row + skipColumn] = row << 1;
    outputs_.insert(outputs_.end(), outs[u].begin(), outs[u].end());
    outputStart_[u + 1] = static_cast<std::uint32_t>(outputs_.size());
  }
  built_ = true;
}

std::vector<AhoCorasick::Match> AhoCorasick::findAll(std::string_view text) {
  std::vector<Match> out;
  walk(text, Range{}, [&](const Match& match) {
    out.push_back(match);
    return true;
  });
  return out;
}

bool AhoCorasick::containsAny(std::string_view text) {
  bool found = false;
  walk(text, Range{}, [&](const Match&) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace bf::text
