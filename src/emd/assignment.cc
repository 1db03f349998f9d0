#include "emd/assignment.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace rsr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

AssignmentResult MinCostAssignment(const CostMatrix& cost) {
  size_t rows = cost.size();
  RSR_CHECK(rows >= 1);
  size_t cols = cost[0].size();
  RSR_CHECK(rows <= cols);
  for (const auto& row : cost) RSR_CHECK_EQ(row.size(), cols);

  // Hungarian with potentials, 1-indexed (e-maxx formulation), O(r^2 c).
  std::vector<double> u(rows + 1, 0.0), v(cols + 1, 0.0);
  std::vector<size_t> match_col(cols + 1, 0);  // col -> row (0 = unmatched)
  std::vector<size_t> way(cols + 1, 0);
  // Per-row search state, reset for each row instead of reallocated.
  std::vector<double> minv(cols + 1);
  std::vector<char> used(cols + 1);

  for (size_t i = 1; i <= rows; ++i) {
    match_col[0] = i;
    size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const size_t i0 = match_col[j0];
      // The scan reads one cost row and one row potential throughout.
      const double* cost_row = cost[i0 - 1].data();
      const double u_i0 = u[i0];
      size_t j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= cols; ++j) {
        if (used[j]) continue;
        double cur = cost_row[j - 1] - u_i0 - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= cols; ++j) {
        if (used[j]) {
          u[match_col[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (match_col[j0] != 0);
    do {
      size_t j1 = way[j0];
      match_col[j0] = match_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(rows, -1);
  for (size_t j = 1; j <= cols; ++j) {
    if (match_col[j] != 0) {
      result.row_to_col[match_col[j] - 1] = static_cast<int>(j - 1);
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    RSR_CHECK(result.row_to_col[r] >= 0);
    result.cost += cost[r][static_cast<size_t>(result.row_to_col[r])];
  }
  return result;
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
