// Earth mover's distance between equal-size point sets (Definitions 3.2/3.3).
//
// EMD(X, Y)   = min-cost perfect matching under the metric.
// EMD_k(X, Y) = min over all (n-k)-subsets of each side of the EMD of the
//               remainder = minimum-cost (n-k)-matching (computed exactly by
//               successive shortest paths; see assignment.h).
// These are evaluation oracles: protocols never need EMD of full sets, but
// the benchmarks report EMD(S_A, S'_B) / EMD_k(S_A, S_B) against the paper's
// O(log n) bound.
#ifndef RSR_EMD_EMD_H_
#define RSR_EMD_EMD_H_

#include "emd/assignment.h"
#include "geometry/metric.h"
#include "geometry/point_store.h"

namespace rsr {

/// Builds the dense distance matrix cost[i][j] = f(x_i, y_j), row by row
/// through the repair's distance entry (emd/repair_kernels.h): row i is
/// "d(x_i, y) into an n-double buffer". For the evaluation oracles, the
/// tests and benchmarks; the repair itself (MinCostMatching) never holds
/// the matrix.
///
/// Arithmetic contract: every entry is bit-identical to
/// metric.Distance(x.row(i), y.row(j), dim), for every input and on either
/// kernel arm (emd/repair_kernels.h). Each pair runs the row kernel's exact
/// operations in coordinate order: l2 takes the int64 difference, converts
/// it to the nearest double, squares and adds it to a double sum starting
/// at 0.0, then takes sqrt; l1 sums |int64 difference| and Hamming counts
/// unequal coordinates, both in exact integer arithmetic (an l1 sum past
/// 2^63 wraps modulo 2^64) converted to double once. The scalar arm runs
/// the row of x against blocks of 8 rows of y with 8 independent
/// accumulators. The AVX2 arm runs it against y transposed once per call
/// into blocks of 8 columns, one column per 64-bit lane; its int64 to
/// double conversion splits the value into exact high and low doubles and
/// rounds once, as cvtsi2sd does, for every int64. Columns past the last
/// full block take the scalar loop on both arms. Neither arm has a second
/// path that some input range selects.
CostMatrix DistanceMatrix(const PointStore& x, const PointStore& y,
                          const Metric& metric);

/// Algorithm 1's repair matching: the minimum-cost assignment of every row
/// of x to a distinct row of y under `metric`. Returns exactly what
/// MinCostAssignment(DistanceMatrix(x, y, metric)) returns (row_to_col, and
/// cost bit for bit: the matched entries summed in row order, each
/// recomputed with metric.Distance), but never holds the |x| x |y| matrix.
/// Requires 1 <= |x| <= |y| and equal dimensions.
///
/// Two paths, one result. First an exact-copy pass: x's distinct rows go
/// into a hash table of at most |x| values, one scan of y in column order
/// gives each row of y equal to a value (coordinates compared; the hash
/// only finds the slot) to the next row of x with that value, in row
/// order, and the scan stops once every row of x has a column. It runs for
/// l2 and Hamming always, and for l1 only when every coordinate of x and y
/// lies in [0, M] with dim * M < 2^63; past that an l1 sum can wrap to a
/// negative cost (see DistanceMatrix above), which the Hungarian
/// prefers to an equal row. If every row of x gets a column, that is the
/// result, in O(|y| * dim + |x| * dim) time. This is the Hungarian's own
/// answer: every cost is >= 0 and is 0 exactly between equal rows, and a
/// zero-cost assignment exists, so each delta of the e-maxx scans is
/// exactly 0.0 and the potentials stay 0; each inserted row then ends at
/// the lowest-index free column of its own value, and the k-th copy of a
/// value in x's row order gets the k-th equal row of y in column order.
/// An honest decode with no value error (every decoded X_B row one of
/// Bob's points, each at most as often as S_B holds it) takes this path.
///
/// Otherwise the Hungarian runs in full and computes each cost row when it
/// scans it, into one |y|-double buffer; a row scanned again is computed
/// again, bit for bit. Its working memory is O(|y| * dim), the kAvx2 arm's
/// transposed y included.
AssignmentResult MinCostMatching(const PointStore& x, const PointStore& y,
                                 const Metric& metric);

/// Exact EMD; requires |x| == |y| >= 1.
double EmdExact(const PointStore& x, const PointStore& y,
                const Metric& metric);

/// Exact EMD_k; requires |x| == |y| >= 1 and 0 <= k < |x|.
double EmdK(const PointStore& x, const PointStore& y, const Metric& metric,
            size_t k);

/// All EMD_k values at once: entry k holds EMD_k(x, y), k = 0..n-1.
std::vector<double> EmdKAll(const PointStore& x, const PointStore& y,
                            const Metric& metric);

}  // namespace rsr

#endif  // RSR_EMD_EMD_H_
