#include "ml/kmeans.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace harmony::ml {

namespace {

constexpr int kMaxIterations = 100;
/// Independent k-means++ inits per fit; the best inertia wins.
constexpr int kRestarts = 4;
/// Relative inertia improvement needed to keep iterating.
constexpr double kTolerance = 1e-6;

int nearest(const FeatureVector& v, const FeatureMatrix& centroids,
            double* dist_out = nullptr) {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double d = squared_distance(v, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  if (dist_out != nullptr) *dist_out = best_d;
  return best;
}

FeatureMatrix kmeanspp_init(const FeatureMatrix& x, int k, Rng& rng) {
  FeatureMatrix centroids;
  centroids.reserve(static_cast<std::size_t>(k));
  centroids.push_back(x[rng.uniform_u64(x.size())]);
  std::vector<double> d2(x.size());
  while (centroids.size() < static_cast<std::size_t>(k)) {
    double total = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      nearest(x[i], centroids, &d2[i]);
      total += d2[i];
    }
    if (total <= 0) {
      // All points coincide with chosen centroids; fill with duplicates.
      centroids.push_back(x[rng.uniform_u64(x.size())]);
      continue;
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = x.size() - 1;
    for (std::size_t i = 0; i < x.size(); ++i) {
      pick -= d2[i];
      if (pick <= 0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(x[chosen]);
  }
  return centroids;
}

KMeansResult lloyd(const FeatureMatrix& x, FeatureMatrix centroids) {
  const std::size_t dims = x.front().size();
  KMeansResult r;
  r.centroids = std::move(centroids);
  r.labels.assign(x.size(), 0);
  double prev_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    r.iterations = iter + 1;
    // Assignment step.
    double inertia = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double d = 0;
      r.labels[i] = nearest(x[i], r.centroids, &d);
      inertia += d;
    }
    r.inertia = inertia;
    // Update step.
    FeatureMatrix sums(r.centroids.size(), FeatureVector(dims, 0.0));
    std::vector<std::size_t> counts(r.centroids.size(), 0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const auto c = static_cast<std::size_t>(r.labels[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c][d] += x[i][d];
    }
    for (std::size_t c = 0; c < r.centroids.size(); ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      for (std::size_t d = 0; d < dims; ++d) {
        r.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (prev_inertia - inertia <= kTolerance * std::max(prev_inertia, 1.0)) {
      break;
    }
    prev_inertia = inertia;
  }
  r.sizes.assign(r.centroids.size(), 0);
  for (const int l : r.labels) ++r.sizes[static_cast<std::size_t>(l)];
  return r;
}

}  // namespace

KMeansResult kmeans(const FeatureMatrix& x, const KMeansOptions& options) {
  HARMONY_CHECK(!x.empty());
  HARMONY_CHECK(options.k >= 1);
  HARMONY_CHECK_MSG(static_cast<std::size_t>(options.k) <= x.size(),
                    "k exceeds sample count");
  Rng rng(options.seed);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (int r = 0; r < kRestarts; ++r) {
    KMeansResult candidate = lloyd(x, kmeanspp_init(x, options.k, rng));
    if (candidate.inertia < best.inertia) best = std::move(candidate);
  }
  return best;
}

}  // namespace harmony::ml
