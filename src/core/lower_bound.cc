#include "core/lower_bound.h"

#include <algorithm>
#include <cmath>

#include "geometry/metric.h"
#include "hashing/hash64.h"

namespace rsr {

Result<std::vector<BitVec>> MakeSeparatedCode(size_t count, size_t bits,
                                              int64_t min_dist, Rng* rng,
                                              int max_attempts) {
  if (count == 0 || bits == 0) {
    return Status::InvalidArgument("count and bits must be positive");
  }
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<BitVec> code;
    code.reserve(count);
    bool ok = true;
    for (size_t i = 0; i < count && ok; ++i) {
      // Rejection-sample each codeword against the ones placed so far.
      bool placed = false;
      for (int tries = 0; tries < 200 && !placed; ++tries) {
        BitVec candidate(bits);
        for (size_t b = 0; b < bits; ++b) {
          candidate.Set(b, (rng->Next() & 1) != 0);
        }
        placed = true;
        for (const BitVec& existing : code) {
          if (candidate.DistanceTo(existing) < min_dist) {
            placed = false;
            break;
          }
        }
        if (placed) code.push_back(std::move(candidate));
      }
      ok = placed;
    }
    if (ok) return code;
  }
  return Status::OutOfRange(
      "could not build a separated code: increase bits or lower min_dist");
}

Result<IndexInstance> BuildIndexInstance(const std::vector<bool>& x,
                                         size_t query_index, int64_t r2,
                                         size_t code_bits, Rng* rng) {
  const size_t n = x.size();
  if (n == 0) return Status::InvalidArgument("x must be nonempty");
  if (query_index >= n) return Status::InvalidArgument("query out of range");
  RSR_ASSIGN_OR_RETURN(std::vector<BitVec> code,
                       MakeSeparatedCode(n + 1, code_bits, r2, rng));

  IndexInstance instance;
  instance.dim = code_bits + 1;
  instance.query_index = query_index;
  instance.answer = x[query_index];
  instance.r2 = r2;
  instance.alice = PointStore(code_bits + 1);
  instance.bob = PointStore(code_bits + 1);

  auto append_suffixed = [&](PointStore* store, const BitVec& codeword,
                             bool bit) {
    Coord* row = store->AppendRow();
    for (size_t b = 0; b < code_bits; ++b) row[b] = codeword.Get(b) ? 1 : 0;
    row[code_bits] = bit ? 1 : 0;
  };

  instance.alice.Reserve(n);
  instance.bob.Reserve(n);
  for (size_t j = 0; j < n; ++j) {
    append_suffixed(&instance.alice, code[j], x[j]);
  }
  for (size_t j = 0; j < n; ++j) {
    if (j != query_index) append_suffixed(&instance.bob, code[j], false);
  }
  append_suffixed(&instance.bob, code[n], false);
  return instance;
}

Result<bool> SolveIndexFromGapOutput(const IndexInstance& instance,
                                     const PointStore& s_b_prime) {
  PointRef target_prefix = instance.alice[instance.query_index];
  for (size_t i = instance.bob.size(); i < s_b_prime.size(); ++i) {
    const PointRef candidate = s_b_prime[i];
    double min_dist = 1e300;
    for (size_t j = 0; j < instance.bob.size(); ++j) {
      min_dist = std::min(
          min_dist, HammingDistance(candidate.data(), instance.bob.row(j),
                                    instance.dim));
    }
    if (min_dist < static_cast<double>(instance.r2)) continue;
    // Verify the code prefix matches c_i, then read the final bit.
    bool prefix_match = true;
    for (size_t b = 0; b + 1 < instance.dim; ++b) {
      if (candidate[b] != target_prefix[b]) {
        prefix_match = false;
        break;
      }
    }
    if (prefix_match) return candidate[instance.dim - 1] != 0;
  }
  return Status::ProtocolFailure(
      "no transmitted point matches the queried codeword at distance >= r2");
}

bool OneRoundBloomIndexGuess(const IndexInstance& instance, size_t budget_bits,
                             uint64_t seed, size_t* bits_used) {
  size_t filter_bits = std::max<size_t>(budget_bits, 8);
  if (bits_used != nullptr) *bits_used = filter_bits;
  // k = (m/n) ln 2 hash functions, at least 1.
  double per_key =
      static_cast<double>(filter_bits) / static_cast<double>(instance.alice.size());
  int num_hashes = std::max(1, static_cast<int>(std::floor(per_key * 0.693)));

  std::vector<uint8_t> filter((filter_bits + 7) / 8, 0);
  auto set_bit = [&](uint64_t h) {
    uint64_t idx = h % filter_bits;
    filter[idx / 8] |= static_cast<uint8_t>(1u << (idx % 8));
  };
  auto test_bit = [&](uint64_t h) {
    uint64_t idx = h % filter_bits;
    return (filter[idx / 8] >> (idx % 8)) & 1;
  };

  for (size_t i = 0; i < instance.alice.size(); ++i) {
    uint64_t base = instance.alice[i].ContentHash(seed);
    for (int j = 0; j < num_hashes; ++j) {
      set_bit(HashCombine(base, static_cast<uint64_t>(j)));
    }
  }

  // Bob tests whether (c_i || 1) is in Alice's set.
  PointRef probe = instance.alice[instance.query_index];
  std::vector<Coord> coords(probe.data(), probe.data() + probe.dim());
  coords[instance.dim - 1] = 1;
  Point candidate(std::move(coords));
  uint64_t base = candidate.ContentHash(seed);
  bool all_set = true;
  for (int j = 0; j < num_hashes; ++j) {
    if (!test_bit(HashCombine(base, static_cast<uint64_t>(j)))) {
      all_set = false;
      break;
    }
  }
  return all_set;
}

}  // namespace rsr
