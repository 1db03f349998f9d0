// Min-cost bipartite matching primitives.
//
// MinCostAssignment: classic Hungarian algorithm with potentials
// (Jonker-Volgenant style row insertion) for rectangular matrices r <= c —
// Algorithm 1's final repair step matches the decoded X_B (<= 2k points)
// against all of S_B with exactly this routine (the paper cites the
// Hungarian method [20]).
//
// MinCostPartialCosts: successive shortest augmenting paths with potentials
// (multi-source Dijkstra). By the SSP optimality property, the flow after t
// augmentations is a minimum-cost t-matching, so a single run yields
// EMD_t for every t — this is how EMD_k (Definition 3.3) is computed exactly
// for evaluation.
#ifndef RSR_EMD_ASSIGNMENT_H_
#define RSR_EMD_ASSIGNMENT_H_

#include <vector>

namespace rsr {

/// Dense cost matrix: cost[r][c], all rows the same length.
using CostMatrix = std::vector<std::vector<double>>;

struct AssignmentResult {
  /// row_to_col[r] = matched column of row r (always matched; r <= c).
  std::vector<int> row_to_col;
  double cost = 0.0;
};

/// Minimum-cost perfect matching of all rows into distinct columns.
/// Requires rows() >= 1 and rows() <= cols().
///
/// Arithmetic contract: the e-maxx Hungarian with potentials u (rows) and
/// v (columns). Rows are inserted in index order; each scan computes the
/// reduced cost as (cost[i0][j] - u[i0]) - v[j] in that order, and among
/// equal minima the lowest column index wins (strict `<`), its minv being
/// the delta. Every u, v and minv value is the e-maxx one: the potentials
/// are updated over the row's tree columns only (each holds a different
/// row, so order is free), and the e-maxx minv[j] -= delta of the unused
/// columns is done by the next scan as it reads minv[j] (a row's last scan
/// has no next). The AVX2 arm (emd/repair_kernels.h) scans 4 columns per
/// vector, each lane keeping its minimum and the lowest column reaching
/// it, and takes delta from the lowest such column among the lanes, so
/// both arms pick the same column and the same double. The result,
/// including which of several optimal matchings is returned, is a
/// deterministic function of the matrix, and `cost` is the sum of the
/// matched entries in row order. Scratch is O(cols) per call.
///
/// The Hungarian reads the matrix one row per scan, and only through a row
/// source (emd_internal::MinCostAssignmentOn in emd/repair_kernels.h); this
/// function is the row source over a held matrix. The repair's row source
/// computes each row when it is scanned instead (MinCostMatching in
/// emd/emd.h), and gets the same result.
AssignmentResult MinCostAssignment(const CostMatrix& cost);

struct PartialMatchingResult {
  /// costs[t] = minimum cost of a t-matching, t = 0..min(r,c).
  std::vector<double> costs;
  /// Final full matching (size min(r,c)): row index -> col or -1.
  std::vector<int> row_to_col;
};

/// Minimum-cost t-matchings for every t via successive shortest paths.
PartialMatchingResult MinCostPartialCosts(const CostMatrix& cost);

}  // namespace rsr

#endif  // RSR_EMD_ASSIGNMENT_H_
