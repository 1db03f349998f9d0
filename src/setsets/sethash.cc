#include "setsets/sethash.h"

#include <algorithm>
#include <numeric>

#include "hashing/hash64.h"

namespace rsr {

uint64_t SetSignature(const SlottedSet& set, uint64_t salt) {
  const SlottedSet* one = &set;
  uint64_t signature = 0;
  SetSignatures(&one, 1, salt, &signature);
  return signature;
}

void SetSignatures(const SlottedSet* const* sets, size_t n, uint64_t salt,
                   uint64_t* out) {
  const SetSignatureHash hash(salt);
  for (size_t i = 0; i < n; ++i) {
    const SlottedSet& set = *sets[i];
    uint64_t acc = 0;
    for (size_t slot = 0; slot < set.size(); ++slot) {
      acc ^= hash.Element(slot, set[slot]);
    }
    out[i] = hash.Finish(acc, set.size());
  }
}

uint64_t SaltedSignature(uint64_t signature, uint64_t occurrence) {
  return HashCombine(signature, 0x0ccULL ^ occurrence);
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
    salted[i] = SaltedSignature(salted[i], i - run_start);
  }
  if (order != nullptr) *order = idx;
  return salted;
}

}  // namespace rsr
