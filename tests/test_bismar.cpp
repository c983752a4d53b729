#include "core/bismar.h"

#include <gtest/gtest.h>

#include "core/static_policy.h"
#include "workload/runner.h"

namespace harmony::core {
namespace {

monitor::SystemState state_with(double write_rate, std::vector<double> delays) {
  monitor::SystemState s;
  s.now = 10 * kSecond;
  s.read_rate = 1000;
  s.write_rate = write_rate;
  s.key_collision = 1.0;  // unit tests model a single contended key
  s.prop_delays_us = delays;
  // Latency estimates: local levels cheap, WAN levels expensive.
  s.est_read_latency_by_k_us = {600, 800, 1000, 9000, 11000};
  s.est_write_latency_by_k_us = {700, 900, 1200, 9500, 11500};
  return s;
}

TEST(BismarController, StartsAtOne) {
  BismarController b(5, 3);
  EXPECT_EQ(b.current_replicas(), 1);
}

TEST(BismarController, PicksCheapLevelWhenFresh) {
  BismarController b(5, 3);
  b.tick(state_with(0.2, {300, 700, 1100, 9000, 11000}));
  EXPECT_EQ(b.current_replicas(), 1);  // nothing is stale; cheap wins
}

TEST(BismarController, AbandonsOneWhenVeryStale) {
  BismarController b(5, 3);
  b.tick(state_with(5000, {300, 700, 1100, 9000, 11000}));
  EXPECT_GT(b.current_replicas(), 1);
  const auto& ranking = b.last_ranking();
  ASSERT_EQ(ranking.size(), 5u);
  // ONE's consistency collapses, so its efficiency must trail the winner's.
  double best = 0;
  for (const auto& p : ranking) best = std::max(best, p.efficiency);
  EXPECT_LT(ranking[0].efficiency, best);
}

TEST(BismarController, EfficiencyTableShapes) {
  BismarController b(5, 3);
  b.tick(state_with(800, {300, 700, 1100, 9000, 11000}));
  const auto& ranking = b.last_ranking();
  ASSERT_EQ(ranking.size(), 5u);
  // Relative cost grows with k; consistency grows with k.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i].relative_cost, ranking[i - 1].relative_cost - 1e-9);
    EXPECT_GE(ranking[i].consistency, ranking[i - 1].consistency - 1e-9);
  }
}

TEST(BismarController, HoldsWithoutObservations) {
  BismarController b(5, 3);
  monitor::SystemState empty;
  b.tick(empty);
  EXPECT_EQ(b.current_replicas(), 1);
}

TEST(BismarInSim, CheaperThanQuorumWithLowStaleness) {
  // The §IV-B headline: Bismar cuts cost vs static QUORUM while keeping
  // staleness in the single digits.
  auto base = [] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 10;
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 5;
    cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.workload = workload::WorkloadSpec::heavy_read_update();
    cfg.workload.op_count = 12000;
    cfg.workload.record_count = 600;
    cfg.workload.clients_per_dc = 10;
    cfg.warmup = kSecond;
    cfg.seed = 77;
    return cfg;
  };
  auto bismar_cfg = base();
  bismar_cfg.policy = bismar_policy();
  const auto bismar_run = workload::run_experiment(bismar_cfg);

  auto quorum_cfg = base();
  quorum_cfg.policy = static_level(cluster::Level::kQuorum);
  const auto quorum_run = workload::run_experiment(quorum_cfg);

  EXPECT_LT(bismar_run.bill.total(), quorum_run.bill.total())
      << "bismar: " << bismar_run.bill.summary()
      << " quorum: " << quorum_run.bill.summary();
  EXPECT_LT(bismar_run.stale_fraction, 0.2) << bismar_run.summary();
}

}  // namespace
}  // namespace harmony::core
