// The two kernels of Algorithm 1's repair (DistanceMatrix and
// MinCostAssignment) and their runtime dispatch.
//
// Each kernel has a portable scalar loop (emd.cc, assignment.cc) and an AVX2
// twin in repair_kernels_avx2.cc, a second translation unit that CMake
// compiles with -mavx2 -ffp-contract=off. The AVX2 entry points take raw
// pointers, cover a prefix of the columns and return where they stopped; the
// scalar loop always finishes the rest. So a tail narrower than a vector, a
// build without AVX2 codegen (where the entry points stop at once) and the
// forced-scalar arm all run the same scalar code. Both arms produce
// bit-identical results by construction (the contracts in emd.h and
// assignment.h); tests/simd_dispatch_test.cc pins arm against arm and
// tests/repair_oracle_test.cc pins both against plain references.
#ifndef RSR_EMD_REPAIR_KERNELS_H_
#define RSR_EMD_REPAIR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "emd/assignment.h"
#include "geometry/metric.h"
#include "geometry/point_store.h"

namespace rsr {
namespace emd_internal {

enum class RepairArm { kScalar, kAvx2 };

/// kAvx2 iff repair_kernels_avx2.cc was compiled with AVX2 codegen, CPUID
/// reports AVX2 and RSR_FORCE_SCALAR is unset (util/cpu_features.h); decided
/// once per process.
RepairArm ActiveRepairArm();
/// "avx2" or "scalar".
const char* RepairArmName(RepairArm arm);

/// DistanceMatrix and MinCostAssignment on a chosen arm. The public
/// functions run ActiveRepairArm(); tests call these to compare the arms.
/// kAvx2 requires a CPU with AVX2 whenever kAvx2RepairKernelsCompiled.
CostMatrix DistanceMatrixOn(RepairArm arm, const PointStore& x,
                            const PointStore& y, const Metric& metric);
AssignmentResult MinCostAssignmentOn(RepairArm arm, const CostMatrix& cost);

// ---- The AVX2 translation unit ----------------------------------------------

/// True iff repair_kernels_avx2.cc was compiled with AVX2 code generation.
extern const bool kAvx2RepairKernelsCompiled;

/// Columns per block of the AVX2 distance fill: two 4-lane groups.
inline constexpr size_t kDistanceBlockCols = 8;

/// Fills out_rows[i][j] = distance(x row i, y row j) for every x row and the
/// columns j < y_rows - y_rows % kDistanceBlockCols, and returns that column
/// count (0 when built without AVX2). Rows are row-major with `dim`
/// coordinates; `block` is scratch for kDistanceBlockCols * dim coordinates.
size_t FillDistanceBlocksAvx2(MetricKind kind, const Coord* x, size_t x_rows,
                              const Coord* y, size_t y_rows, size_t dim,
                              Coord* block, double* const* out_rows);

/// One scan of the e-maxx Hungarian over the columns of one tree row, with
/// the reference's 1-based column arrays. `pending` is the previous scan's
/// delta, which the reference subtracts from every unused minv[j] right
/// after that scan; here each scan subtracts it as it reads minv[j]. On the
/// first scan of a row (`first`), minv holds nothing yet and reads as +inf.
struct HungarianScan {
  const double* cost_row;  // cost_row[j - 1] is column j
  double u_i0;
  double pending;
  bool first;
  size_t j0;
  const int64_t* used;  // 0, or all bits set for a column in the tree
  const double* v;
  double* minv;
  size_t* way;
};

/// The running minimum of a scan: the lowest column j1 whose minv is the
/// smallest so far, and that minv (delta). j1 = 0 while none is below +inf.
struct ScanMin {
  double delta;
  size_t j1;
};

/// Scans columns [1, k) for the largest k <= end with k - 1 a multiple of 4,
/// writes their minimum to *best and returns k (1, with *best untouched,
/// when built without AVX2).
size_t ScanColumnsAvx2(const HungarianScan& scan, size_t end, ScanMin* best);

}  // namespace emd_internal
}  // namespace rsr

#endif  // RSR_EMD_REPAIR_KERNELS_H_
