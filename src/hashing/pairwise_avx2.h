// The AVX2 arm of PairwiseVectorHash::EvalPrefixesRows (pairwise.h).
//
// The definition lives in pairwise_avx2.cc, which CMake compiles with
// -mavx2. pairwise.cc dispatches to it (hashing_internal::ActiveKeyArm) and
// finishes the rows it leaves with the scalar walk. When that file is built
// without AVX2 code generation (non-x86 target, unsupported compiler),
// kAvx2PairwiseCompiled is false and the entry point hashes no row, so the
// scalar walk does them all.
#ifndef RSR_HASHING_PAIRWISE_AVX2_H_
#define RSR_HASHING_PAIRWISE_AVX2_H_

#include <cstddef>
#include <cstdint>

namespace rsr {
namespace hashing_internal {

/// True iff pairwise_avx2.cc was compiled with AVX2 code generation enabled
/// (the dispatcher requires this on top of the CPUID probe).
extern const bool kAvx2PairwiseCompiled;

/// Writes the masked prefix keys of rows [0, count / 4 * 4), four rows per
/// vector, and returns that row count (0 without AVX2 codegen). coeffs holds
/// the multipliers a_j (each < p) for every j < lens[num_prefixes - 1], b
/// and salt are the hash's constant and length salt (each < p), and the
/// other arguments are EvalPrefixesRows'.
size_t PrefixRowsAvx2(const uint64_t* coeffs, uint64_t b, uint64_t salt,
                      const uint64_t* rows, size_t count, size_t row_stride,
                      const size_t* lens, size_t num_prefixes, uint64_t mask,
                      size_t out_n, uint64_t* out);

}  // namespace hashing_internal
}  // namespace rsr

#endif  // RSR_HASHING_PAIRWISE_AVX2_H_
