#include <gtest/gtest.h>

#include "common/check.h"
#include "cost/billing.h"
#include "cost/cost_model.h"
#include "cost/pricing.h"

namespace harmony::cost {
namespace {

TEST(Billing, ThreePartDecomposition) {
  ResourceUsage u;
  u.node_hours = 100;          // 100 * 0.26 = 26
  u.storage_gb_hours = 730.0;  // 1 GB-month = 0.10
  u.io_requests = 10'000'000;  // 10 * 0.10 = 1.0
  u.cross_dc_gb = 50;          // 0.5
  u.egress_gb = 10;            // 1.2
  const auto bill = BillCalculator(PriceBook::ec2_2012()).compute(u);
  EXPECT_NEAR(bill.instances, 26.0, 1e-9);
  EXPECT_NEAR(bill.storage, 0.10 + 1.0, 1e-9);
  EXPECT_NEAR(bill.network, 0.5 + 1.2, 1e-9);
  EXPECT_NEAR(bill.total(), 26.0 + 1.1 + 1.7, 1e-9);
}

TEST(Billing, Grid5000BillsOnlyEnergy) {
  ResourceUsage u;
  u.node_hours = 1000;
  u.cross_dc_gb = 100;
  u.energy_kwh = 50;
  const auto bill = BillCalculator(PriceBook::grid5000()).compute(u);
  EXPECT_EQ(bill.instances, 0.0);
  EXPECT_EQ(bill.network, 0.0);
  EXPECT_NEAR(bill.energy, 50 * 0.12, 1e-9);
}

TEST(Billing, SummaryMentionsTotal) {
  Bill b;
  b.instances = 1.0;
  EXPECT_NE(b.summary().find("total=$1.00"), std::string::npos);
}

/// Index of the most efficient level: argmax of evaluate(), first index on
/// ties — the rule BismarController::tick applies to the ranking.
std::size_t best_level(const ConsistencyCostEfficiency& metric,
                       const std::vector<LevelEstimate>& levels) {
  const auto points = metric.evaluate(levels);
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].efficiency > points[best].efficiency) best = i;
  }
  return best;
}

TEST(Efficiency, StrongerLevelsCostMore) {
  std::vector<LevelEstimate> levels;
  for (int k = 1; k <= 5; ++k) {
    LevelEstimate e;
    e.replicas = k;
    e.read_latency_us = 500.0 * k;
    e.write_latency_us = 600.0 * k;
    e.cross_dc_bytes_per_op = 100.0 * k;
    e.p_stale = 0.0;
    levels.push_back(e);
  }
  const auto points = ConsistencyCostEfficiency().evaluate(levels);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].relative_cost, points[i - 1].relative_cost);
  }
  // With zero staleness everywhere, the cheapest level is the most efficient.
  EXPECT_EQ(best_level(ConsistencyCostEfficiency(), levels), 0u);
}

TEST(Efficiency, StalenessPenalizesWeakLevels) {
  // ONE is half the cost but 60% stale; QUORUM is fresh. With alpha=2 the
  // efficiency metric must prefer QUORUM: 0.4^2/0.5 = 0.32 < 1.0/1.0.
  std::vector<LevelEstimate> levels(2);
  levels[0] = {1, 500, 500, 100, 0.60};
  levels[1] = {3, 1000, 1000, 200, 0.0};
  ConsistencyCostEfficiency metric({0.8, 0.1, 0.1}, 2.0);
  EXPECT_EQ(best_level(metric, levels), 1u);
}

TEST(Efficiency, MildStalenessKeepsWeakLevelEfficient) {
  // The paper: levels with staleness < 20% are the efficient ones.
  std::vector<LevelEstimate> levels(2);
  levels[0] = {1, 500, 500, 100, 0.10};
  levels[1] = {3, 1500, 1500, 200, 0.0};
  ConsistencyCostEfficiency metric({0.8, 0.1, 0.1}, 2.0);
  EXPECT_EQ(best_level(metric, levels), 0u);
}

TEST(Efficiency, AlphaControlsConsistencyWeight) {
  std::vector<LevelEstimate> levels(2);
  levels[0] = {1, 500, 500, 100, 0.35};
  levels[1] = {3, 1200, 1200, 200, 0.0};
  // Low alpha: cost dominates -> ONE. High alpha: consistency dominates.
  EXPECT_EQ(best_level(ConsistencyCostEfficiency({0.8, 0.1, 0.1}, 0.5), levels),
            0u);
  EXPECT_EQ(best_level(ConsistencyCostEfficiency({0.8, 0.1, 0.1}, 4.0), levels),
            1u);
}

TEST(Efficiency, BaselineIsSmallestReplicaCount) {
  // Order should not matter: baseline is k=1 wherever it sits.
  std::vector<LevelEstimate> levels(2);
  levels[0] = {3, 1500, 1500, 300, 0.0};
  levels[1] = {1, 500, 500, 100, 0.0};
  const auto points = ConsistencyCostEfficiency().evaluate(levels);
  EXPECT_NEAR(points[1].relative_cost, 1.0, 1e-9);
  EXPECT_GT(points[0].relative_cost, 1.0);
}

TEST(Efficiency, RejectsBadConfig) {
  EXPECT_THROW(ConsistencyCostEfficiency({0, 0, 0}, 2.0), harmony::CheckError);
  EXPECT_THROW(ConsistencyCostEfficiency({1, 1, 1}, 0.0), harmony::CheckError);
}

TEST(CrossDcBytes, WritesDominateAndReadsScaleWithK) {
  const double value = 1024, overhead = 64, digest = 16;
  // rf=5, local_rf=3: reads at k<=3 stay local -> only write traffic.
  const double b1 = expected_cross_dc_bytes_per_op(0.5, 1, 5, 3, value,
                                                   overhead, digest);
  const double b3 = expected_cross_dc_bytes_per_op(0.5, 3, 5, 3, value,
                                                   overhead, digest);
  const double b5 = expected_cross_dc_bytes_per_op(0.5, 5, 5, 3, value,
                                                   overhead, digest);
  EXPECT_DOUBLE_EQ(b1, b3);
  EXPECT_GT(b5, b3);
  // Write-only traffic: 2 remote replicas x (value + 2*overhead) x 50%.
  EXPECT_NEAR(b1, 0.5 * 2 * (value + 2 * overhead), 1e-9);
}

TEST(CrossDcBytes, ReadOnlyWorkloadHasNoCrossDcAtLocalLevels) {
  const double b = expected_cross_dc_bytes_per_op(1.0, 2, 5, 3, 1024, 64, 16);
  EXPECT_EQ(b, 0.0);
}

TEST(PriceBooks, Presets) {
  EXPECT_GT(PriceBook::ec2_2012().instance_per_hour, 0.0);
  EXPECT_EQ(PriceBook::grid5000().instance_per_hour, 0.0);
  EXPECT_GT(PriceBook::grid5000().energy_kwh, 0.0);
}

}  // namespace
}  // namespace harmony::cost
