#include "text/ngram_hasher.h"

#include "util/hashing.h"

namespace bf::text {

std::vector<HashedGram> hashNgrams(const NormalizedText& normalized,
                                   std::size_t ngramChars) {
  std::vector<HashedGram> out;
  const std::string& t = normalized.text;
  if (ngramChars == 0 || t.size() < ngramChars) return out;

  out.reserve(t.size() - ngramChars + 1);
  util::KarpRabin roller(ngramChars);
  std::uint64_t h = roller.init(t);
  // Post-mix the rolling hash: raw Karp-Rabin values of similar strings are
  // correlated in their low bits, which the 32-bit truncation keeps.
  out.push_back({static_cast<Hash>(util::mix64(h)), 0});
  for (std::size_t i = ngramChars; i < t.size(); ++i) {
    h = roller.roll(t[i - ngramChars], t[i]);
    out.push_back({static_cast<Hash>(util::mix64(h)),
                   static_cast<std::uint32_t>(i - ngramChars + 1)});
  }
  return out;
}

}  // namespace bf::text
