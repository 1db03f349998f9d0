#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace rsr {

void GenerateUniformInto(size_t n, size_t dim, Coord delta, Rng* rng,
                         PointStore* out) {
  RSR_CHECK_EQ(out->dim(), dim);
  out->Reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    Coord* row = out->AppendRow();
    for (size_t j = 0; j < dim; ++j) row[j] = rng->UniformInt(0, delta);
  }
}

PointStore GenerateUniformStore(size_t n, size_t dim, Coord delta, Rng* rng) {
  PointStore store(dim);
  GenerateUniformInto(n, dim, delta, rng, &store);
  return store;
}

void PerturbRowInto(const Coord* p, size_t dim, MetricKind metric,
                    double radius, Coord delta, Rng* rng, Coord* out) {
  std::copy(p, p + dim, out);
  switch (metric) {
    case MetricKind::kHamming: {
      // Change floor(radius) distinct coordinates to different values.
      size_t budget = std::min<size_t>(static_cast<size_t>(radius), dim);
      std::vector<size_t> indices(dim);
      for (size_t i = 0; i < dim; ++i) indices[i] = i;
      for (size_t i = 0; i < budget; ++i) {
        size_t pick = i + static_cast<size_t>(rng->Below(dim - i));
        std::swap(indices[i], indices[pick]);
        size_t j = indices[i];
        Coord old = out[j];
        // delta == 1: flip; otherwise draw a different value.
        Coord next = old;
        while (next == old) next = rng->UniformInt(0, delta);
        out[j] = next;
      }
      break;
    }
    case MetricKind::kL1: {
      // floor(radius) unit steps at random coordinates; clamping can only
      // shrink the realized distance.
      size_t budget = static_cast<size_t>(radius);
      for (size_t step = 0; step < budget; ++step) {
        size_t j = static_cast<size_t>(rng->Below(dim));
        Coord dir = (rng->Next() & 1) ? 1 : -1;
        out[j] = std::clamp<Coord>(out[j] + dir, 0, delta);
      }
      break;
    }
    case MetricKind::kL2: {
      // Random direction, uniform magnitude, integer rounding; rescale until
      // the rounded offset stays within the budget.
      std::vector<double> dir(dim);
      double norm = 0.0;
      for (auto& d : dir) {
        d = rng->Gaussian();
        norm += d * d;
      }
      norm = std::sqrt(std::max(norm, 1e-12));
      double magnitude = radius * rng->UniformDouble();
      std::vector<Coord> candidate(dim);
      for (int attempt = 0; attempt < 40; ++attempt) {
        double realized = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          double offset = dir[j] / norm * magnitude;
          Coord step = static_cast<Coord>(std::llround(offset));
          candidate[j] = std::clamp<Coord>(p[j] + step, 0, delta);
          double diff = static_cast<double>(candidate[j] - p[j]);
          realized += diff * diff;
        }
        if (std::sqrt(realized) <= radius) {
          std::copy(candidate.begin(), candidate.end(), out);
          break;
        }
        magnitude *= 0.8;
      }
      break;
    }
  }
}

Result<NoisyPairStoreWorkload> GenerateNoisyPairStore(
    const NoisyPairConfig& config) {
  if (config.dim == 0 || config.delta < 1 || config.n == 0) {
    return Status::InvalidArgument("dim, delta, n must be positive");
  }
  if (config.outliers > config.n) {
    return Status::InvalidArgument("outliers cannot exceed n");
  }
  Rng rng(config.seed);
  Metric metric(config.metric);
  const size_t dim = config.dim;

  NoisyPairStoreWorkload workload;
  workload.alice = PointStore(dim);
  workload.bob = PointStore(dim);
  workload.ground = PointStore(dim);
  workload.alice_outliers = PointStore(dim);
  workload.bob_outliers = PointStore(dim);

  size_t ground_size = config.n - config.outliers;
  GenerateUniformInto(ground_size, dim, config.delta, &rng, &workload.ground);
  workload.alice.Reserve(config.n);
  workload.bob.Reserve(config.n);
  for (size_t i = 0; i < ground_size; ++i) {
    PerturbRowInto(workload.ground.row(i), dim, config.metric, config.noise,
                   config.delta, &rng, workload.alice.AppendRow());
    PerturbRowInto(workload.ground.row(i), dim, config.metric, config.noise,
                   config.delta, &rng, workload.bob.AppendRow());
  }

  PointStore scratch(dim);
  auto place_outlier = [&](PointStore* target_list) -> Status {
    for (int tries = 0; tries < 4000; ++tries) {
      scratch.Clear();
      GenerateUniformInto(1, dim, config.delta, &rng, &scratch);
      const Coord* candidate = scratch.row(0);
      if (config.outlier_dist > 0) {
        auto check = [&](const PointStore& others) {
          for (size_t i = 0; i < others.size(); ++i) {
            if (metric.Distance(candidate, others.row(i), dim) <
                config.outlier_dist) {
              return false;
            }
          }
          return true;
        };
        bool far_enough = check(workload.alice) && check(workload.bob) &&
                          check(workload.alice_outliers) &&
                          check(workload.bob_outliers);
        if (!far_enough) continue;
      }
      target_list->Append(candidate);
      return Status::OK();
    }
    return Status::OutOfRange(
        "could not place an outlier at the requested separation");
  };

  for (size_t i = 0; i < config.outliers; ++i) {
    RSR_RETURN_NOT_OK(place_outlier(&workload.alice_outliers));
    RSR_RETURN_NOT_OK(place_outlier(&workload.bob_outliers));
  }
  workload.alice.AppendStore(workload.alice_outliers);
  workload.bob.AppendStore(workload.bob_outliers);
  return workload;
}

}  // namespace rsr
