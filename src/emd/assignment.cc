#include "emd/assignment.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "emd/repair_kernels.h"
#include "util/cpu_features.h"
#include "util/logging.h"

namespace rsr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The scalar scan of columns [begin, end), continuing from *best: the
/// reference's loop body with the previous scan's minv[j] -= delta folded
/// into the read of minv[j].
void ScanColumns(const emd_internal::HungarianScan& s, size_t begin,
                 size_t end, emd_internal::ScanMin* best) {
  for (size_t j = begin; j < end; ++j) {
    if (s.used[j]) continue;
    const double cur = s.cost_row[j - 1] - s.u_i0 - s.v[j];
    double m = s.first ? kInf : s.minv[j] - s.pending;
    if (cur < m) {
      m = cur;
      s.way[j] = s.j0;
    }
    s.minv[j] = m;
    if (m < best->delta) {
      best->delta = m;
      best->j1 = j;
    }
  }
}

}  // namespace

namespace emd_internal {

RepairArm ActiveRepairArm() {
  static const RepairArm arm =
      kAvx2RepairKernelsCompiled && CpuSupportsAvx2() && !ForceScalarKernels()
          ? RepairArm::kAvx2
          : RepairArm::kScalar;
  return arm;
}

const char* RepairArmName(RepairArm arm) {
  return arm == RepairArm::kAvx2 ? "avx2" : "scalar";
}

std::vector<int> MinCostAssignmentOn(RepairArm arm, size_t rows, size_t cols,
                                     CostRowFn row) {
  RSR_CHECK(rows >= 1);
  RSR_CHECK(rows <= cols);

  // Hungarian with potentials, 1-indexed (e-maxx formulation), O(r^2 c).
  std::vector<double> u(rows + 1, 0.0), v(cols + 1, 0.0);
  std::vector<size_t> match_col(cols + 1, 0);  // col -> row (0 = unmatched)
  std::vector<size_t> way(cols + 1, 0);
  // Per-row search state. minv needs no reset: a row's first scan does not
  // read it. `used` is cleared through `tree`, the row's used columns.
  std::vector<double> minv(cols + 1);
  std::vector<int64_t> used(cols + 1, 0);
  std::vector<size_t> tree;
  tree.reserve(rows + 1);

  for (size_t i = 1; i <= rows; ++i) {
    match_col[0] = i;
    size_t j0 = 0;
    double pending = 0.0;
    bool first = true;
    do {
      used[j0] = -1;
      tree.push_back(j0);
      const size_t i0 = match_col[j0];
      const HungarianScan scan{row(i0 - 1), u[i0],       pending,
                               first,       j0,          used.data(),
                               v.data(),    minv.data(), way.data()};
      ScanMin best{kInf, 0};
      size_t j = 1;
      if (arm == RepairArm::kAvx2) j = ScanColumnsAvx2(scan, cols + 1, &best);
      ScanColumns(scan, j, cols + 1, &best);
      // Each tree column holds a different row, so the order is free.
      for (size_t t : tree) {
        u[match_col[t]] += best.delta;
        v[t] -= best.delta;
      }
      // The unused minv[j] -= delta waits for the next scan, and a row's
      // last scan needs none.
      pending = best.delta;
      first = false;
      j0 = best.j1;
    } while (match_col[j0] != 0);
    for (size_t t : tree) used[t] = 0;
    tree.clear();
    do {
      size_t j1 = way[j0];
      match_col[j0] = match_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> row_to_col(rows, -1);
  for (size_t j = 1; j <= cols; ++j) {
    if (match_col[j] != 0) {
      row_to_col[match_col[j] - 1] = static_cast<int>(j - 1);
    }
  }
  for (int col : row_to_col) RSR_CHECK(col >= 0);
  return row_to_col;
}

AssignmentResult MinCostAssignmentOn(RepairArm arm, const CostMatrix& cost) {
  const size_t rows = cost.size();
  RSR_CHECK(rows >= 1);
  const size_t cols = cost[0].size();
  for (const auto& cost_row : cost) RSR_CHECK_EQ(cost_row.size(), cols);
  const auto row = [&cost](size_t i) { return cost[i].data(); };
  AssignmentResult result;
  result.row_to_col = MinCostAssignmentOn(arm, rows, cols, CostRowFn(row));
  for (size_t r = 0; r < rows; ++r) {
    result.cost += cost[r][static_cast<size_t>(result.row_to_col[r])];
  }
  return result;
}

}  // namespace emd_internal

AssignmentResult MinCostAssignment(const CostMatrix& cost) {
  return emd_internal::MinCostAssignmentOn(emd_internal::ActiveRepairArm(),
                                           cost);
}

PartialMatchingResult MinCostPartialCosts(const CostMatrix& cost) {
  size_t rows = cost.size();
  RSR_CHECK(rows >= 1);
  size_t cols = cost[0].size();
  for (const auto& row : cost) RSR_CHECK_EQ(row.size(), cols);
  size_t max_t = std::min(rows, cols);

  // Successive shortest augmenting paths with potentials. Each round runs a
  // dense multi-source Dijkstra from all unmatched rows over reduced costs
  //   cost[r][c] + pr[r] - pc[c]  (>= 0 invariant),
  // where matched edges are tight (reduced cost 0) so traversing a matched
  // column back to its row is free.
  std::vector<double> pr(rows, 0.0), pc(cols, 0.0);
  std::vector<int> match_row(rows, -1), match_col(cols, -1);

  PartialMatchingResult result;
  result.costs.assign(max_t + 1, 0.0);
  double total = 0.0;

  for (size_t t = 1; t <= max_t; ++t) {
    std::vector<double> dist_row(rows, kInf), dist_col(cols, kInf);
    std::vector<int> parent_row_of_col(cols, -1);  // col reached from row
    std::vector<char> row_done(rows, 0), col_done(cols, 0);
    for (size_t r = 0; r < rows; ++r) {
      if (match_row[r] < 0) dist_row[r] = 0.0;
    }

    int found_col = -1;
    double found_dist = kInf;
    for (;;) {
      // Pick the unprocessed node (row or col) with the smallest distance.
      double best = kInf;
      int best_row = -1, best_col = -1;
      for (size_t r = 0; r < rows; ++r) {
        if (!row_done[r] && dist_row[r] < best) {
          best = dist_row[r];
          best_row = static_cast<int>(r);
          best_col = -1;
        }
      }
      for (size_t c = 0; c < cols; ++c) {
        if (!col_done[c] && dist_col[c] < best) {
          best = dist_col[c];
          best_col = static_cast<int>(c);
          best_row = -1;
        }
      }
      if (best == kInf) break;  // no augmenting path
      if (best_col >= 0) {
        size_t c = static_cast<size_t>(best_col);
        if (match_col[c] < 0) {
          found_col = best_col;
          found_dist = best;
          break;
        }
        col_done[c] = 1;
        // Traverse the matched (tight) edge back to the row for free.
        size_t r = static_cast<size_t>(match_col[c]);
        if (!row_done[r] && dist_col[c] < dist_row[r]) {
          dist_row[r] = dist_col[c];
        }
      } else {
        size_t r = static_cast<size_t>(best_row);
        row_done[r] = 1;
        for (size_t c = 0; c < cols; ++c) {
          if (col_done[c] || match_row[r] == static_cast<int>(c)) continue;
          double nd = dist_row[r] + cost[r][c] + pr[r] - pc[c];
          if (nd < dist_col[c]) {
            dist_col[c] = nd;
            parent_row_of_col[c] = static_cast<int>(r);
          }
        }
      }
    }

    if (found_col < 0) break;  // no more augmenting paths (cols exhausted)

    // Update potentials: pi(v) += min(dist(v), found_dist).
    for (size_t r = 0; r < rows; ++r) {
      pr[r] += std::min(dist_row[r], found_dist);
    }
    for (size_t c = 0; c < cols; ++c) {
      pc[c] += std::min(dist_col[c], found_dist);
    }

    // Flip the matching along the augmenting path.
    int c = found_col;
    while (c >= 0) {
      int r = parent_row_of_col[static_cast<size_t>(c)];
      RSR_CHECK(r >= 0);
      int prev_col = match_row[static_cast<size_t>(r)];
      match_row[static_cast<size_t>(r)] = c;
      match_col[static_cast<size_t>(c)] = r;
      c = prev_col;
    }

    total = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      if (match_row[r] >= 0) {
        total += cost[r][static_cast<size_t>(match_row[r])];
      }
    }
    result.costs[t] = total;
  }

  // If augmentation stopped early (disconnected infinite costs), remaining
  // entries stay at the last achievable cost; callers with finite matrices
  // never hit this.
  for (size_t t = 1; t <= max_t; ++t) {
    if (result.costs[t] == 0.0 && t > 0 && result.costs[t - 1] > 0.0) {
      result.costs[t] = result.costs[t - 1];
    }
  }
  result.row_to_col = match_row;
  return result;
}

}  // namespace rsr
