#include "text/fingerprint.h"

#include <algorithm>
#include <cassert>

namespace bf::text {

Fingerprint Fingerprint::fromSelected(std::vector<HashedGram> selected) {
  Fingerprint fp;
  std::sort(selected.begin(), selected.end(),
            [](const HashedGram& a, const HashedGram& b) {
              return a.pos < b.pos;
            });
  fp.hashes_.reserve(selected.size());
  for (const auto& g : selected) fp.hashes_.push_back(g.hash);
  std::sort(fp.hashes_.begin(), fp.hashes_.end());
  fp.hashes_.erase(std::unique(fp.hashes_.begin(), fp.hashes_.end()),
                   fp.hashes_.end());
  fp.grams_ = std::move(selected);
  return fp;
}

Fingerprint Fingerprint::fromSortedParts(std::vector<HashedGram> grams,
                                         std::vector<Hash> hashes) {
  assert(std::is_sorted(grams.begin(), grams.end(),
                        [](const HashedGram& a, const HashedGram& b) {
                          return a.pos < b.pos;
                        }));
  assert(std::is_sorted(hashes.begin(), hashes.end()));
  assert(std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end());
  Fingerprint fp;
  fp.grams_ = std::move(grams);
  fp.hashes_ = std::move(hashes);
  return fp;
}

bool Fingerprint::contains(Hash hash) const noexcept {
  return std::binary_search(hashes_.begin(), hashes_.end(), hash);
}

std::size_t Fingerprint::intersectionSize(const Fingerprint& a,
                                          const Fingerprint& b) noexcept {
  std::size_t count = 0;
  auto ia = a.hashes_.begin();
  auto ib = b.hashes_.begin();
  while (ia != a.hashes_.end() && ib != b.hashes_.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

}  // namespace bf::text
