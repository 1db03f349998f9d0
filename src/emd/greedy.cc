#include "emd/greedy.h"

#include <limits>
#include <vector>

#include "util/logging.h"

namespace rsr {

double GreedyEmdUpperBound(const PointStore& x, const PointStore& y,
                           const Metric& metric) {
  RSR_CHECK_EQ(x.size(), y.size());
  RSR_CHECK(!x.empty());
  std::vector<char> used(y.size(), 0);
  double total = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_index = 0;
    for (size_t j = 0; j < y.size(); ++j) {
      if (used[j]) continue;
      double d = metric.Distance(x[i], y[j]);
      if (d < best) {
        best = d;
        best_index = j;
      }
    }
    used[best_index] = 1;
    total += best;
  }
  return total;
}

}  // namespace rsr
