// Feature matrices and normalization for the behavior-modeling pipeline.
#pragma once

#include <cstddef>
#include <vector>

namespace harmony::ml {

using FeatureVector = std::vector<double>;
using FeatureMatrix = std::vector<FeatureVector>;

double squared_distance(const FeatureVector& a, const FeatureVector& b);

/// Z-score normalizer: fit on training windows, transform online windows with
/// the same statistics (constant features map to 0).
class ZScoreNormalizer {
 public:
  void fit(const FeatureMatrix& x);
  FeatureVector transform(const FeatureVector& v) const;
  FeatureMatrix transform(const FeatureMatrix& x) const;
  bool fitted() const { return !mean_.empty(); }
  const FeatureVector& mean() const { return mean_; }
  const FeatureVector& stddev() const { return stddev_; }

 private:
  FeatureVector mean_;
  FeatureVector stddev_;
};

}  // namespace harmony::ml
