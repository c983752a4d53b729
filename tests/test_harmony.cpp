#include "core/harmony.h"

#include <gtest/gtest.h>

#include "core/static_policy.h"
#include "workload/runner.h"

namespace harmony::core {
namespace {

monitor::SystemState state_with(double write_rate,
                                std::vector<double> delays) {
  monitor::SystemState s;
  s.now = 10 * kSecond;
  s.read_rate = 1000;
  s.write_rate = write_rate;
  s.key_collision = 1.0;  // unit tests model a single contended key
  s.prop_delays_us = std::move(delays);
  return s;
}

TEST(HarmonyController, StartsAtOne) {
  HarmonyController h(HarmonyOptions{}, 5);
  EXPECT_EQ(h.current_replicas(), 1);
  EXPECT_EQ(h.read_requirement().count, 1);
  EXPECT_EQ(h.write_requirement().count, 1);
}

TEST(HarmonyController, StaysAtOneWithoutObservations) {
  HarmonyController h(HarmonyOptions{}, 5);
  monitor::SystemState empty;
  empty.write_rate = 10000;
  h.tick(empty);
  EXPECT_EQ(h.current_replicas(), 1);
}

TEST(HarmonyController, EscalatesUnderHotWrites) {
  HarmonyOptions opt;
  opt.tolerance = 0.05;
  HarmonyController h(opt, 5);
  h.tick(state_with(3000, {300, 700, 1100, 9000, 11000}));
  EXPECT_GT(h.current_replicas(), 1);
  EXPECT_GT(h.estimate_at_one(), 0.05);
  EXPECT_LE(h.estimate_at_current(), 0.05);
  EXPECT_EQ(h.switches(), 1u);
}

TEST(HarmonyController, RelaxesWhenWritesStop) {
  HarmonyOptions opt;
  opt.tolerance = 0.05;
  HarmonyController h(opt, 5);
  h.tick(state_with(3000, {300, 700, 1100, 9000, 11000}));
  const int high = h.current_replicas();
  ASSERT_GT(high, 1);
  auto calm = state_with(0.5, {300, 700, 1100, 9000, 11000});
  calm.now = 20 * kSecond;
  h.tick(calm);
  EXPECT_EQ(h.current_replicas(), 1);
}

TEST(HarmonyController, ToleranceOrdersLevels) {
  const auto s = state_with(800, {300, 700, 1100, 9000, 11000});
  HarmonyOptions tight;
  tight.tolerance = 0.02;
  HarmonyOptions loose;
  loose.tolerance = 0.6;
  HarmonyController a(tight, 5), b(loose, 5);
  a.tick(s);
  b.tick(s);
  EXPECT_GE(a.current_replicas(), b.current_replicas());
}

TEST(HarmonyController, CooldownBlocksFlapping) {
  HarmonyOptions opt;
  opt.tolerance = 0.05;
  opt.cooldown = 10 * kSecond;
  HarmonyController h(opt, 5);
  auto hot = state_with(3000, {300, 700, 1100, 9000, 11000});
  hot.now = kSecond;
  h.tick(hot);
  const int level = h.current_replicas();
  ASSERT_GT(level, 1);
  // Load vanishes immediately, but the cooldown holds the level.
  auto calm = state_with(0.5, {300, 700, 1100, 9000, 11000});
  calm.now = 2 * kSecond;
  h.tick(calm);
  EXPECT_EQ(h.current_replicas(), level);
  calm.now = 30 * kSecond;
  h.tick(calm);
  EXPECT_EQ(h.current_replicas(), 1);
}

TEST(HarmonyController, NameCarriesTolerance) {
  HarmonyOptions opt;
  opt.tolerance = 0.4;
  HarmonyController h(opt, 5);
  EXPECT_EQ(h.name(), "harmony(40%)");
}

TEST(HarmonyController, RejectsBadOptions) {
  HarmonyOptions opt;
  opt.tolerance = 1.5;
  EXPECT_THROW(HarmonyController(opt, 5), CheckError);
}

// End-to-end: Harmony must keep measured staleness at or below tolerance
// while beating the strong baseline's latency profile.
class HarmonyToleranceInSim : public ::testing::TestWithParam<double> {};

TEST_P(HarmonyToleranceInSim, StaysWithinTolerance) {
  const double tolerance = GetParam();
  workload::RunConfig cfg;
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 5;
  cfg.cluster.latency = net::TieredLatencyModel::grid5000_two_sites();
  cfg.workload = workload::WorkloadSpec::heavy_read_update();
  cfg.workload.op_count = 35000;
  cfg.workload.record_count = 300;  // hot key space
  cfg.workload.clients_per_dc = 12;
  cfg.policy = harmony_policy(tolerance);
  cfg.policy_tick = 200 * kMillisecond;
  cfg.warmup = 600 * kMillisecond;
  cfg.seed = 31;
  const auto r = workload::run_experiment(cfg);
  ASSERT_GT(r.stale_reads + r.fresh_reads, 3000u);
  // The estimator is approximate; allow modest slack above tolerance.
  EXPECT_LE(r.stale_fraction, tolerance + 0.10) << r.summary();
  EXPECT_GT(r.avg_read_replicas, 0.99);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, HarmonyToleranceInSim,
                         ::testing::Values(0.05, 0.2, 0.4));

TEST(HarmonyInSim, AdaptsBetweenOneAndAll) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 5;
  cfg.cluster.latency = net::TieredLatencyModel::grid5000_two_sites();
  cfg.workload = workload::WorkloadSpec::heavy_read_update();
  cfg.workload.op_count = 35000;
  cfg.workload.record_count = 300;
  cfg.workload.clients_per_dc = 12;
  cfg.policy = harmony_policy(0.2);
  cfg.policy_tick = 200 * kMillisecond;
  cfg.warmup = 600 * kMillisecond;
  cfg.seed = 32;
  const auto r = workload::run_experiment(cfg);
  // Harmony sits strictly between eventual (k=1) and strong (k=5).
  EXPECT_GT(r.avg_read_replicas, 1.0);
  EXPECT_LT(r.avg_read_replicas, 5.0);
}

}  // namespace
}  // namespace harmony::core
