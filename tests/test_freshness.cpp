#include "core/freshness_sla.h"

#include <gtest/gtest.h>

#include "workload/runner.h"

namespace harmony::core {
namespace {

monitor::SystemState state_with(double write_rate) {
  monitor::SystemState s;
  s.now = 10 * kSecond;
  s.read_rate = 1000;
  s.write_rate = write_rate;
  s.key_collision = 1.0;  // unit tests model a single contended key
  s.prop_delays_us = {300, 700, 1100, 9000, 11000};
  return s;
}

TEST(FreshnessSla, LooseDeadlineStaysWeak) {
  FreshnessSlaOptions opt;
  opt.deadline = 100 * kMillisecond;  // beyond the 11ms window: always met
  opt.epsilon = 0.01;
  FreshnessSlaPolicy p(opt, 5);
  p.tick(state_with(3000));
  EXPECT_EQ(p.current_replicas(), 1);
  EXPECT_EQ(p.estimated_violation(), 0.0);
}

TEST(FreshnessSla, TightDeadlineEscalates) {
  FreshnessSlaOptions opt;
  opt.deadline = 500;  // 0.5ms, far inside the window
  opt.epsilon = 0.01;
  FreshnessSlaPolicy p(opt, 5);
  p.tick(state_with(3000));
  EXPECT_GT(p.current_replicas(), 1);
  EXPECT_LE(p.estimated_violation(), 0.01);
}

TEST(FreshnessSla, DeadlineOrdersLevels) {
  FreshnessSlaOptions tight;
  tight.deadline = usec(500);
  tight.epsilon = 0.01;
  FreshnessSlaOptions loose;
  loose.deadline = 8 * kMillisecond;
  loose.epsilon = 0.01;
  FreshnessSlaPolicy a(tight, 5), b(loose, 5);
  const auto s = state_with(2000);
  a.tick(s);
  b.tick(s);
  EXPECT_GE(a.current_replicas(), b.current_replicas());
}

TEST(FreshnessSla, EpsilonOrdersLevels) {
  FreshnessSlaOptions strict;
  strict.deadline = kMillisecond;
  strict.epsilon = 0.001;
  FreshnessSlaOptions relaxed;
  relaxed.deadline = kMillisecond;
  relaxed.epsilon = 0.5;
  FreshnessSlaPolicy a(strict, 5), b(relaxed, 5);
  const auto s = state_with(2000);
  a.tick(s);
  b.tick(s);
  EXPECT_GE(a.current_replicas(), b.current_replicas());
}

TEST(FreshnessSla, ReportsExpectedAge) {
  FreshnessSlaOptions opt;
  opt.deadline = 2 * kMillisecond;
  FreshnessSlaPolicy p(opt, 5);
  p.tick(state_with(1000));
  if (p.current_replicas() < 5) {
    EXPECT_GE(p.expected_age_us(), 0.0);
    EXPECT_LT(p.expected_age_us(), 11000.0);
  }
}

TEST(FreshnessSla, NameEncodesGuarantee) {
  FreshnessSlaOptions opt;
  opt.deadline = 50 * kMillisecond;
  opt.epsilon = 0.01;
  FreshnessSlaPolicy p(opt, 5);
  EXPECT_EQ(p.name(), "freshness(50.00ms,1.0%)");
}

TEST(FreshnessSlaInSim, BoundsObservedStalenessAges) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 5;
  cfg.cluster.latency = net::TieredLatencyModel::grid5000_two_sites();
  cfg.workload = workload::WorkloadSpec::heavy_read_update();
  cfg.workload.op_count = 30000;
  cfg.workload.record_count = 300;
  cfg.workload.clients_per_dc = 12;
  FreshnessSlaOptions opt;
  opt.deadline = 5 * kMillisecond;
  opt.epsilon = 0.02;
  cfg.policy = freshness_sla_policy(opt);
  cfg.policy_tick = 250 * kMillisecond;
  cfg.warmup = 600 * kMillisecond;
  cfg.seed = 13;
  const auto r = workload::run_experiment(cfg);
  const auto judged = r.stale_reads + r.fresh_reads;
  ASSERT_GT(judged, 2000u);
  // Deadline violations: stale reads older than the deadline.
  std::uint64_t violations = 0;
  if (r.staleness_age.count() > 0) {
    // p such that age > deadline: read off the histogram.
    for (double q = 0.5; q <= 1.0; q += 0.01) {
      if (r.staleness_age.percentile(q * 100) > opt.deadline) {
        violations = static_cast<std::uint64_t>(
            (1.0 - q) * static_cast<double>(r.staleness_age.count()));
        break;
      }
    }
  }
  const double violation_rate =
      static_cast<double>(violations) / static_cast<double>(judged);
  EXPECT_LE(violation_rate, opt.epsilon + 0.05) << r.summary();
}

}  // namespace
}  // namespace harmony::core
