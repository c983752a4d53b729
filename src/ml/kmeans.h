// k-means clustering with k-means++ seeding and restarts — the "machine
// learning techniques" the paper's behavior modeler uses to "identify the
// different states and states evolvements of the application" (§III-C).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/features.h"

namespace harmony::ml {

struct KMeansOptions {
  int k = 3;
  int max_iterations = 100;
  int restarts = 4;        ///< independent k-means++ inits; best inertia wins
  double tolerance = 1e-6; ///< relative inertia improvement to keep iterating
  std::uint64_t seed = 42;
};

struct KMeansResult {
  FeatureMatrix centroids;          ///< k rows
  std::vector<int> labels;          ///< per input row
  double inertia = 0;               ///< sum of squared distances to centroids
  int iterations = 0;               ///< of the winning restart
  std::vector<std::size_t> sizes;   ///< cluster populations
};

KMeansResult kmeans(const FeatureMatrix& x, const KMeansOptions& options);

}  // namespace harmony::ml
