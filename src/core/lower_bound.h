// Theorem 4.6 / Appendix F: the INDEX reduction instance.
//
// The lower bound reduces INDEX to one-round Gap reconciliation on
// ({0,1}^d, Hamming) with r1 = 1, k = 1: fix n+1 codewords of pairwise
// distance >= r2; Alice holds {c_j || x_j}, Bob holds every codeword except
// c_i (plus c_{n+1}), each suffixed with 0. Any protocol meeting the Gap
// guarantee delivers c_i || x_i to Bob, revealing x_i — so one-round
// protocols need Omega(n) bits. This module builds the hard instance
// (random code with verified separation, valid whp for
// d = Omega(log n + r2)), the decoder Bob uses, and a one-round strawman
// (a Bloom filter of Alice's points) whose failure rate bench_lower_bound
// sweeps against its bit budget.
#ifndef RSR_CORE_LOWER_BOUND_H_
#define RSR_CORE_LOWER_BOUND_H_

#include "geometry/bitvec.h"
#include "geometry/point.h"
#include "geometry/point_store.h"
#include "util/random.h"
#include "util/status.h"

namespace rsr {

/// `count` codewords of `bits` bits with pairwise Hamming distance >=
/// min_dist. Random-code construction with explicit verification; fails
/// (OutOfRange) if `bits` is too small for the separation whp.
Result<std::vector<BitVec>> MakeSeparatedCode(size_t count, size_t bits,
                                              int64_t min_dist, Rng* rng,
                                              int max_attempts = 64);

struct IndexInstance {
  PointStore alice;        // {c_j || x_j}
  PointStore bob;          // {c_j || 0 : j != query} ∪ {c_{n+1} || 0}
  size_t query_index = 0;  // i
  bool answer = false;     // x_i
  size_t dim = 0;          // d = code bits + 1
  int64_t r2 = 0;
};

/// Builds the reduction instance for INDEX input x and query i.
Result<IndexInstance> BuildIndexInstance(const std::vector<bool>& x,
                                         size_t query_index, int64_t r2,
                                         size_t code_bits, Rng* rng);

/// Bob's decoding rule: among points of s_b_prime beyond his originals, find
/// one at distance >= r2 from all of S_B whose code prefix matches c_i;
/// return its final bit.
Result<bool> SolveIndexFromGapOutput(const IndexInstance& instance,
                                     const PointStore& s_b_prime);

/// One-round strawman within a fixed bit budget: Alice sends a Bloom filter
/// of her exact points; Bob answers whether (c_i || 1) tests positive.
/// Returns the guess; *bits_used receives the actual filter size.
bool OneRoundBloomIndexGuess(const IndexInstance& instance, size_t budget_bits,
                             uint64_t seed, size_t* bits_used);

}  // namespace rsr

#endif  // RSR_CORE_LOWER_BOUND_H_
