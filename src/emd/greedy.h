// Greedy EMD upper bound for large-n evaluation.
//
// Exact EMD (assignment.h) is O(n^3) and caps evaluation around n ~ 10^3.
// GreedyEmdUpperBound matches each point of X to its nearest unmatched point
// of Y in a fixed pass order — O(n^2) time, O(n) extra memory — and returns
// a valid upper bound on EMD(X, Y) (any perfect matching is). Benchmarks use
// it to extend approximation-quality measurements to set sizes where the
// Hungarian evaluator is impractical; tests pin it against the exact value
// on small instances.
#ifndef RSR_EMD_GREEDY_H_
#define RSR_EMD_GREEDY_H_

#include "geometry/metric.h"
#include "geometry/point_store.h"

namespace rsr {

/// Upper bound on EMD(x, y); requires |x| == |y| >= 1.
double GreedyEmdUpperBound(const PointStore& x, const PointStore& y,
                           const Metric& metric);

}  // namespace rsr

#endif  // RSR_EMD_GREEDY_H_
