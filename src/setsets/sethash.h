// Signatures, element encodings, and occurrence salting for slotted sets.
//
// The Gap protocol's keys (Section 4.1) are vectors of h entries, interpreted
// as sets of (hash, vector-index) pairs. We call these *slotted sets*: a
// fixed-length vector whose slot j holds a 32-bit value. This module provides
// the canonical hashing used by the set-of-sets reconciler:
//   - element encoding: a 64-bit word (occurrence | slot | value), invertible;
//   - set signature: XOR of per-element hashes (order independent);
//   - occurrence salting: the canonical multiset workaround for XOR-IBLTs
//     (the i-th copy of an identical item is salted with i on both parties,
//     so shared copies still cancel).
#ifndef RSR_SETSETS_SETHASH_H_
#define RSR_SETSETS_SETHASH_H_

#include <cstdint>
#include <vector>

#include "hashing/hash64.h"
#include "util/logging.h"

namespace rsr {

/// A fixed-length vector; slot j holds a 32-bit value.
using SlottedSet = std::vector<uint32_t>;

constexpr int kElementValueBits = 32;
constexpr int kElementSlotBits = 16;
constexpr int kElementOccBits = 16;
constexpr size_t kMaxSlots = (size_t{1} << kElementSlotBits);
constexpr size_t kMaxOccurrences = (size_t{1} << kElementOccBits);

/// Packs (occurrence, slot, value) into an invertible 64-bit element word.
inline uint64_t EncodeElement(uint32_t occ, uint32_t slot, uint32_t value) {
  RSR_DCHECK(occ < kMaxOccurrences);
  RSR_DCHECK(slot < kMaxSlots);
  return (static_cast<uint64_t>(occ) << 48) |
         (static_cast<uint64_t>(slot) << 32) | value;
}

inline void DecodeElement(uint64_t word, uint32_t* occ, uint32_t* slot,
                          uint32_t* value) {
  *occ = static_cast<uint32_t>(word >> 48);
  *slot = static_cast<uint32_t>((word >> 32) & 0xffff);
  *value = static_cast<uint32_t>(word & 0xffffffffULL);
}

/// The set-signature formula under one salt, stated once. The signature of
/// a set with `slots` slots is
///   Finish(acc, slots) = Mix64(acc ^ Mix64(salt + slots)),
///   acc = XOR over slots j of Element(j, set[j]),
///   Element(j, v) = Mix64((j << 32) ^ v ^ Mix64(salt ^ 0x5e7516)).
/// XOR commutes, so equal content gives an equal signature whatever the
/// construction order, and a search may accumulate acc one slot at a time.
/// The final mix hides the all-XOR structure from downstream tables.
class SetSignatureHash {
 public:
  explicit SetSignatureHash(uint64_t salt)
      : salt_(salt), element_salt_(Mix64(salt ^ 0x5e7516ULL)) {}

  uint64_t Element(size_t slot, uint32_t value) const {
    return Mix64((static_cast<uint64_t>(slot) << 32) ^ value ^ element_salt_);
  }

  uint64_t Finish(uint64_t acc, size_t slots) const {
    return Mix64(acc ^ Mix64(salt_ + slots));
  }

 private:
  uint64_t salt_;
  uint64_t element_salt_;  // loop-invariant across sets and slots
};

/// Order-independent 64-bit content signature of a slotted set: the batch
/// form over one set.
uint64_t SetSignature(const SlottedSet& set, uint64_t salt);

/// Batch signatures: out[i] = SetSignature(*sets[i], salt), under one
/// SetSignatureHash, so the salt is mixed once for the whole batch.
void SetSignatures(const SlottedSet* const* sets, size_t n, uint64_t salt,
                   uint64_t* out);

/// Signature salted with a canonical occurrence index (multiset semantics).
/// The occurrence is only hashed, never packed, so it has no width limit.
uint64_t SaltedSignature(uint64_t signature, uint64_t occurrence);

/// Canonical salted signatures for a multiset of sets: sets are sorted
/// lexicographically; the i-th copy of equal sets receives occurrence i.
/// Output is aligned with the *sorted* order; `order` (optional) receives
/// the permutation mapping sorted position -> original index.
std::vector<uint64_t> CanonicalSaltedSignatures(
    const std::vector<SlottedSet>& sets, uint64_t salt,
    std::vector<size_t>* order);

/// b-bit fingerprint of a (slot, value) element (1 <= b <= 32). Inline, so
/// a loop over elements under one salt mixes the salt once.
inline uint32_t ElementFingerprint(uint32_t slot, uint32_t value, uint64_t salt,
                                   int bits) {
  RSR_DCHECK(bits >= 1 && bits <= 32);
  uint64_t h = Mix64((static_cast<uint64_t>(slot) << 32) ^ value ^
                     Mix64(salt ^ 0xf1a9ULL));
  return static_cast<uint32_t>(h & ((bits >= 32) ? 0xffffffffULL
                                                 : ((1ULL << bits) - 1)));
}

}  // namespace rsr

#endif  // RSR_SETSETS_SETHASH_H_
