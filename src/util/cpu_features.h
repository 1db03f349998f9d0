// Runtime CPU feature detection and the SIMD dispatch policy.
//
// Three kernel sets ship a portable scalar reference plus AVX2
// implementations, each compiled into its own translation unit with -mavx2
// (CMakeLists.txt gates that on an x86-64 GNU/Clang toolchain): the LSH
// batch kernels (lsh/batch_kernels.h, lsh/batch_kernels_avx2.cc), the
// level-key prefix hash (hashing/pairwise.h, hashing/pairwise_avx2.cc) and
// the repair kernels (emd/repair_kernels.h, emd/repair_kernels_avx2.cc). One
// binary runs everywhere: each dispatcher probes the CPU once and selects
// the widest implementation the host supports, so no part of the portable
// build ever executes an instruction the CPU lacks.
//
// Policy, decided once per process and kernel set (thread-safe static init):
//   AVX2 kernels run iff
//     (a) that set's AVX2 translation unit was compiled with AVX2 enabled
//         (lsh_internal::kAvx2KernelsCompiled,
//         hashing_internal::kAvx2PairwiseCompiled,
//         emd_internal::kAvx2RepairKernelsCompiled),
//     (b) CPUID reports AVX2 support (CpuSupportsAvx2), and
//     (c) the RSR_FORCE_SCALAR environment override is not set.
//   Anything else falls back to the scalar reference kernels.
//
// RSR_FORCE_SCALAR: set to any value other than "" or "0" to pin the scalar
// path (CI runs the full test suite under both arms; see
// ci/build_and_test.sh). Read once, at the first dispatch decision.
//
// Both paths are bit-identical by construction — the AVX2 kernels preserve
// each point's (or matrix column's) scalar operation order, and the key
// kernel computes each row's exact integer sum before reducing it — so the
// override is a coverage and debugging knob, never a correctness one.
#ifndef RSR_UTIL_CPU_FEATURES_H_
#define RSR_UTIL_CPU_FEATURES_H_

#include <string>

namespace rsr {

/// True iff CPUID reports AVX2 (always false on non-x86 builds). Cached
/// after the first call.
bool CpuSupportsAvx2();

/// True iff the RSR_FORCE_SCALAR environment variable pins the scalar
/// kernels (set and neither empty nor "0"). Read once per process.
bool ForceScalarKernels();

/// Human-readable summary of the probed instruction-set extensions, e.g.
/// "sse2 sse4.2 avx avx2 fma" — recorded in BENCH_micro.json metadata so
/// baseline comparisons across machines are interpretable.
std::string CpuFeatureString();

}  // namespace rsr

#endif  // RSR_UTIL_CPU_FEATURES_H_
