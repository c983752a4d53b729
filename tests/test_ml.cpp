#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/features.h"
#include "ml/kmeans.h"
#include "ml/silhouette.h"

namespace harmony::ml {
namespace {

/// Three well-separated Gaussian blobs in 2D.
FeatureMatrix three_blobs(int per_cluster, std::uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x;
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      x.push_back({centers[c][0] + rng.normal() * 0.5,
                   centers[c][1] + rng.normal() * 0.5});
    }
  }
  return x;
}

TEST(Features, SquaredDistance) {
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
  EXPECT_THROW(squared_distance({1}, {1, 2}), CheckError);
}

TEST(ZScore, NormalizesToZeroMeanUnitVar) {
  FeatureMatrix x = {{1, 100}, {2, 200}, {3, 300}, {4, 400}};
  ZScoreNormalizer n;
  n.fit(x);
  const auto t = n.transform(x);
  double mean0 = 0, mean1 = 0;
  for (const auto& row : t) {
    mean0 += row[0];
    mean1 += row[1];
  }
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(mean1, 0.0, 1e-12);
}

TEST(ZScore, ConstantFeatureMapsToZero) {
  FeatureMatrix x = {{5, 1}, {5, 2}, {5, 3}};
  ZScoreNormalizer n;
  n.fit(x);
  for (const auto& row : n.transform(x)) EXPECT_EQ(row[0], 0.0);
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  const auto x = three_blobs(50, 1);
  KMeansOptions opt;
  opt.k = 3;
  const auto r = kmeans(x, opt);
  ASSERT_EQ(r.centroids.size(), 3u);
  // Every cluster has ~50 members.
  for (const auto s : r.sizes) EXPECT_NEAR(static_cast<double>(s), 50.0, 5.0);
  // Points within a blob share a label.
  for (int c = 0; c < 3; ++c) {
    const int label = r.labels[c * 50];
    for (int i = 1; i < 50; ++i) EXPECT_EQ(r.labels[c * 50 + i], label);
  }
}

TEST(KMeans, DeterministicInSeed) {
  const auto x = three_blobs(30, 2);
  KMeansOptions opt;
  opt.k = 3;
  opt.seed = 77;
  const auto a = kmeans(x, opt);
  const auto b = kmeans(x, opt);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, InertiaDecreasesWithK) {
  const auto x = three_blobs(30, 3);
  double prev = 1e300;
  for (int k = 1; k <= 4; ++k) {
    KMeansOptions opt;
    opt.k = k;
    const auto r = kmeans(x, opt);
    EXPECT_LE(r.inertia, prev + 1e-9);
    prev = r.inertia;
  }
}

TEST(KMeans, KEqualsOneGivesGrandMean) {
  FeatureMatrix x = {{0, 0}, {2, 2}, {4, 4}};
  KMeansOptions opt;
  opt.k = 1;
  const auto r = kmeans(x, opt);
  EXPECT_NEAR(r.centroids[0][0], 2.0, 1e-9);
  EXPECT_NEAR(r.centroids[0][1], 2.0, 1e-9);
}

TEST(KMeans, RejectsKBeyondSamples) {
  FeatureMatrix x = {{1, 1}, {2, 2}};
  KMeansOptions opt;
  opt.k = 3;
  EXPECT_THROW(kmeans(x, opt), CheckError);
}

TEST(KMeans, AssignLabelsMatchesFit) {
  // The runtime classifier built from the fitted centroids (the behavior
  // modeler's path) labels every training row as the fit did.
  const auto x = three_blobs(20, 4);
  KMeansOptions opt;
  opt.k = 3;
  const auto r = kmeans(x, opt);
  const NearestCentroidClassifier classifier(r.centroids);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(classifier.predict(x[i]), r.labels[i]) << "row " << i;
  }
}

TEST(Silhouette, HighForSeparatedLowForMixed) {
  const auto separated = three_blobs(30, 5);
  KMeansOptions opt;
  opt.k = 3;
  const auto r = kmeans(separated, opt);
  const double good = silhouette_score(separated, r.labels, 3);
  EXPECT_GT(good, 0.8);

  // One blob split into two arbitrary halves scores poorly.
  Rng rng(6);
  FeatureMatrix blob;
  for (int i = 0; i < 60; ++i) blob.push_back({rng.normal(), rng.normal()});
  std::vector<int> split_labels(60);
  for (int i = 0; i < 60; ++i) split_labels[i] = i % 2;
  EXPECT_LT(silhouette_score(blob, split_labels, 2), 0.2);
}

TEST(Silhouette, SelectKFindsThree) {
  const auto x = three_blobs(40, 7);
  KMeansOptions base;
  const auto sel = select_k(x, 2, 6, base);
  EXPECT_EQ(sel.best_k, 3);
  EXPECT_GT(sel.best_score, 0.7);
  EXPECT_EQ(sel.scores.size(), 5u);
}

TEST(Classifier, PredictsNearestCentroid) {
  NearestCentroidClassifier c({{0, 0}, {10, 10}});
  EXPECT_EQ(c.predict({1, 1}), 0);
  EXPECT_EQ(c.predict({9, 9}), 1);
  EXPECT_NEAR(c.distance_to_assigned({3, 4}), 5.0, 1e-9);
  EXPECT_EQ(c.state_count(), 2u);
}

TEST(Classifier, UntrainedThrows) {
  NearestCentroidClassifier c;
  EXPECT_THROW(c.predict({1.0}), CheckError);
}

}  // namespace
}  // namespace harmony::ml
