#include "ml/features.h"

#include <cmath>

#include "common/check.h"

namespace harmony::ml {

double squared_distance(const FeatureVector& a, const FeatureVector& b) {
  HARMONY_CHECK(a.size() == b.size());
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

void ZScoreNormalizer::fit(const FeatureMatrix& x) {
  HARMONY_CHECK(!x.empty());
  const std::size_t dims = x.front().size();
  mean_.assign(dims, 0.0);
  stddev_.assign(dims, 0.0);
  for (const auto& row : x) {
    HARMONY_CHECK(row.size() == dims);
    for (std::size_t d = 0; d < dims; ++d) mean_[d] += row[d];
  }
  for (auto& m : mean_) m /= static_cast<double>(x.size());
  for (const auto& row : x) {
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = row[d] - mean_[d];
      stddev_[d] += diff * diff;
    }
  }
  for (auto& s : stddev_) {
    s = std::sqrt(s / static_cast<double>(x.size()));
    if (s == 0.0) s = 1.0;  // constant feature: map to 0 via (v-mean)/1
  }
}

FeatureVector ZScoreNormalizer::transform(const FeatureVector& v) const {
  HARMONY_CHECK(fitted());
  HARMONY_CHECK(v.size() == mean_.size());
  FeatureVector out(v.size());
  for (std::size_t d = 0; d < v.size(); ++d) {
    out[d] = (v[d] - mean_[d]) / stddev_[d];
  }
  return out;
}

FeatureMatrix ZScoreNormalizer::transform(const FeatureMatrix& x) const {
  FeatureMatrix out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(transform(row));
  return out;
}

}  // namespace harmony::ml
