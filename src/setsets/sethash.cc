#include "setsets/sethash.h"

#include <algorithm>
#include <numeric>

#include "hashing/hash64.h"

namespace rsr {

uint64_t SetSignature(const SlottedSet& set, uint64_t salt) {
  const uint64_t elem_salt = Mix64(salt ^ 0x5e7516ULL);  // loop-invariant
  uint64_t acc = 0;
  for (size_t slot = 0; slot < set.size(); ++slot) {
    // XOR of per-element hashes: commutative, so equal content => equal
    // signature regardless of construction order.
    acc ^= Mix64((static_cast<uint64_t>(slot) << 32) ^ set[slot] ^ elem_salt);
  }
  // Final mix so the all-XOR structure is not visible to downstream tables.
  return Mix64(acc ^ Mix64(salt + set.size()));
}

void SetSignatures(const SlottedSet* const* sets, size_t n, uint64_t salt,
                   uint64_t* out) {
  const uint64_t elem_salt = Mix64(salt ^ 0x5e7516ULL);
  for (size_t i = 0; i < n; ++i) {
    const SlottedSet& set = *sets[i];
    uint64_t acc = 0;
    for (size_t slot = 0; slot < set.size(); ++slot) {
      acc ^= Mix64((static_cast<uint64_t>(slot) << 32) ^ set[slot] ^ elem_salt);
    }
    out[i] = Mix64(acc ^ Mix64(salt + set.size()));
  }
}

uint64_t SaltedSignature(uint64_t signature, uint32_t occurrence) {
  return HashCombine(signature, 0x0ccu ^ occurrence);
}

std::vector<uint64_t> CanonicalSaltedSignatures(
    const std::vector<SlottedSet>& sets, uint64_t salt,
    std::vector<size_t>* order) {
  std::vector<size_t> idx(sets.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&sets](size_t a, size_t b) {
    return sets[a] < sets[b];
  });

  // Signatures in one batch (salt mix hoisted), then occurrence-salt the
  // runs of equal sets.
  std::vector<const SlottedSet*> sorted(sets.size());
  for (size_t i = 0; i < idx.size(); ++i) sorted[i] = &sets[idx[i]];
  std::vector<uint64_t> salted(sets.size());
  SetSignatures(sorted.data(), sorted.size(), salt, salted.data());
  size_t run_start = 0;
  for (size_t i = 0; i < idx.size(); ++i) {
    if (i > 0 && sets[idx[i]] != sets[idx[i - 1]]) run_start = i;
    uint32_t occurrence = static_cast<uint32_t>(i - run_start);
    RSR_CHECK(occurrence < kMaxOccurrences);
    salted[i] = SaltedSignature(salted[i], occurrence);
  }
  if (order != nullptr) *order = idx;
  return salted;
}

}  // namespace rsr
