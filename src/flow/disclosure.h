// Disclosure metrics (paper S4.2) and authoritative fingerprints (S4.3).
//
//   D(A, B) = |F_auth(A) ∩ F(B)| / |F(A)|
//
// where F_auth(A) keeps only those hashes of F(A) whose OLDEST association
// in DBhash is A itself. This compensates for overlapping documents: a
// segment that merely re-contains text first seen elsewhere is not treated
// as the authoritative source of that text (paper Fig. 7).
#pragma once

#include <cstdint>
#include <vector>

#include "flow/hash_db.h"
#include "flow/segment_db.h"
#include "text/fingerprint.h"

namespace bf::flow {

/// The subset of `source`'s fingerprint hashes for which `source` is the
/// oldest associated segment ("F_authoritative", S4.3). Sorted ascending.
[[nodiscard]] std::vector<text::Hash> authoritativeHashes(
    const SegmentRecord& source, const HashDb& hashDb);

/// |F_auth(source) ∩ target|, computed without materialising F_auth by
/// walking the source's fingerprint. The pairwise routine (one source, one
/// target: pairwise disclosure, attribution) and the reference oracle for
/// Algorithm 1's queries, which count the same set from the target's side.
[[nodiscard]] std::size_t authoritativeOverlap(const SegmentRecord& source,
                                               const text::Fingerprint& target,
                                               const HashDb& hashDb);

/// D(source, target) in [0, 1]. Returns 0 when |F(source)| = 0 (segments
/// too short to fingerprint are never reported as disclosed; the paper
/// excludes them, S6.1).
[[nodiscard]] double disclosureScore(const SegmentRecord& source,
                                     const text::Fingerprint& target,
                                     const HashDb& hashDb);

/// Disclosure decision: requires a non-empty overlap AND D >= threshold.
/// The non-empty requirement makes threshold 0 mean "any leaked hash
/// triggers" (paper S4.2's T_par = 0 example) instead of "always triggers".
[[nodiscard]] bool isDisclosed(double score, std::size_t overlap,
                               double threshold) noexcept;

}  // namespace bf::flow
