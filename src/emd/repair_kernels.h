// The two kernels of Algorithm 1's repair and their runtime dispatch: the
// distances from one point to every row of S_B (DistanceRows), and the
// e-maxx Hungarian over a source of cost rows (MinCostAssignmentOn).
//
// The repair never holds the |X_B| x n cost matrix. The Hungarian asks for
// cost row i when it scans that row, and the repair (MinCostMatching in
// emd.h) fills it into one n-double buffer. DistanceMatrix and
// MinCostAssignment(const CostMatrix&) are thin wrappers over the same two
// kernels. A row the Hungarian scans again is computed again, bit for bit.
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
//
// Neither kernel runs when MinCostMatching's exact-copy pass (emd.h)
// matches every X_B row to an equal S_B row. Otherwise the working memory
// of one repair is O(n * dim + n): the kAvx2 arm's transposed copy of
// S_B, one cost row and the Hungarian's per-column state. Nothing here is
// shared between calls, so concurrent repairs need no locking.
#ifndef RSR_EMD_REPAIR_KERNELS_H_
#define RSR_EMD_REPAIR_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Columns per block of the AVX2 distance fill: two 4-lane groups.
inline constexpr size_t kDistanceBlockCols = 8;

/// "Fill row i of d(x, S_B)": the distances from one point to every row of
/// y, on one arm. The kAvx2 arm transposes y's full blocks of
/// kDistanceBlockCols rows once, at construction (blocks_[b * 8 * dim +
/// c * 8 + k] is coordinate c of row 8b + k); the kScalar arm reads y's rows
/// in place, 8 rows per block. Fill keeps no scratch, so threads may share
/// one instance. Holds `y` by reference.
class DistanceRows {
 public:
  DistanceRows(RepairArm arm, const PointStore& y, const Metric& metric);

  /// out[j] = metric.Distance(x, y.row(j), y.dim()), bit for bit, for every
  /// j < y.size(); x has y.dim() coordinates.
  void Fill(const Coord* x, double* out) const;

 private:
  const PointStore& y_;
  MetricKind kind_;
  std::vector<Coord> blocks_;  // kAvx2 arm, AVX2 compiled: transposed y
};

/// A non-owning view of a callable `const double* (size_t i)` that returns
/// cost row i: `cols` doubles, read only until the next call. The callable
/// must outlive the view.
class CostRowFn {
 public:
  template <typename F>
  explicit CostRowFn(const F& f)
      : callable_(&f),
        call_([](const void* callable, size_t i) -> const double* {
          return (*static_cast<const F*>(callable))(i);
        }) {}

  const double* operator()(size_t i) const { return call_(callable_, i); }

 private:
  const void* callable_;
  const double* (*call_)(const void*, size_t);
};

/// The Hungarian of MinCostAssignment over a rows x cols matrix that `row`
/// produces on demand; returns row_to_col. Each scan asks for the row it
/// scans, once. Requires 1 <= rows <= cols.
std::vector<int> MinCostAssignmentOn(RepairArm arm, size_t rows, size_t cols,
                                     CostRowFn row);

/// DistanceMatrix, MinCostAssignment and MinCostMatching on a chosen arm.
/// The public functions run ActiveRepairArm(); tests call these to compare
/// the arms. kAvx2 requires a CPU with AVX2 whenever
/// kAvx2RepairKernelsCompiled.
CostMatrix DistanceMatrixOn(RepairArm arm, const PointStore& x,
                            const PointStore& y, const Metric& metric);
AssignmentResult MinCostAssignmentOn(RepairArm arm, const CostMatrix& cost);
AssignmentResult MinCostMatchingOn(RepairArm arm, const PointStore& x,
                                   const PointStore& y, const Metric& metric);

// ---- The AVX2 translation unit ----------------------------------------------

/// True iff repair_kernels_avx2.cc was compiled with AVX2 code generation.
extern const bool kAvx2RepairKernelsCompiled;

/// Fills out[j] = distance(x, column j) for the columns
/// j < cols - cols % kDistanceBlockCols of `blocks` (DistanceRows' layout,
/// `dim` coordinates per column) and returns that column count (0 when
/// built without AVX2).
size_t FillDistanceRowAvx2(MetricKind kind, const Coord* x,
                           const Coord* blocks, size_t cols, size_t dim,
                           double* out);

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
