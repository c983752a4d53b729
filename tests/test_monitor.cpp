#include "monitor/monitor.h"

#include <gtest/gtest.h>

namespace harmony::monitor {
namespace {

cluster::ClusterConfig test_cluster_config() {
  cluster::ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 5;
  return cfg;
}

TEST(Monitor, RatesTrackIssuedOps) {
  Monitor m;
  sim::Simulation sim(1);
  cluster::Cluster c(sim, test_cluster_config());
  m.attach(c, 0);
  // 200 reads/s and 100 writes/s for 5 seconds.
  for (int i = 0; i < 1000; ++i) m.record_read_issued(i * 5 * kMillisecond, i);
  for (int i = 0; i < 500; ++i) m.record_write_issued(i * 10 * kMillisecond, i, 100);
  const auto s = m.snapshot(5 * kSecond);
  EXPECT_NEAR(s.read_rate, 200.0, 20.0);
  EXPECT_NEAR(s.write_rate, 100.0, 10.0);
  // One latency estimate per level up to rf = 5; with no RTT samples yet the
  // first local_rf = 3 levels (NTS split 3/2, client homed in dc0) read at
  // the local fallback and the rest at the remote one.
  ASSERT_EQ(s.est_read_latency_by_k_us.size(), 5u);
  EXPECT_DOUBLE_EQ(s.est_read_latency_by_k_us[2], 500.0);
  EXPECT_DOUBLE_EQ(s.est_read_latency_by_k_us[3], 5000.0);
}

TEST(Monitor, PropagationProfileSortedAndSized) {
  Monitor m;
  sim::Simulation sim(2);
  cluster::Cluster c(sim, test_cluster_config());
  m.attach(c, 0);
  m.on_write_propagated(1, 0, {5000, 800, 12000, 300, 9000});
  m.on_write_propagated(2, 20000, {4000, 900, 11000, 350, 8000});
  const auto s = m.snapshot(50000);
  ASSERT_EQ(s.prop_delays_us.size(), 5u);
  for (std::size_t i = 1; i < s.prop_delays_us.size(); ++i) {
    EXPECT_GE(s.prop_delays_us[i], s.prop_delays_us[i - 1]);
  }
  EXPECT_NEAR(s.prop_delays_us.front(), 325.0, 50.0);  // mean of min delays
  EXPECT_NEAR(s.window_us(), 11500.0, 600.0);  // mean of max delays
}

TEST(Monitor, PartialPropagationAlignsLowOrderStats) {
  Monitor m;
  sim::Simulation sim(3);
  cluster::Cluster c(sim, test_cluster_config());
  m.attach(c, 0);
  m.on_write_propagated(1, 0, {100, 200, 300});  // lost replicas mid-flight
  const auto s = m.snapshot(1000);
  ASSERT_EQ(s.prop_delays_us.size(), 3u);
  EXPECT_NEAR(s.prop_delays_us.front(), 100.0, 1.0);
}

TEST(Monitor, RttSplitByLocality) {
  Monitor m;
  sim::Simulation sim(4);
  cluster::Cluster c(sim, test_cluster_config());
  m.attach(c, 0);
  for (int i = 0; i < 50; ++i) {
    m.on_replica_read_rtt(0, 500, false);
    m.on_replica_read_rtt(5, 9000, true);
  }
  const auto s = m.snapshot(1000);
  EXPECT_NEAR(s.replica_rtt_local_us, 500.0, 50.0);
  // A read at k = rf contacts two remote replicas, whose samples are all
  // 9000 µs.
  EXPECT_NEAR(s.est_read_latency_by_k_us.back(), 9000.0, 500.0);
}

TEST(Monitor, EstimatedReadLatencyMonotoneInK) {
  Monitor m;
  sim::Simulation sim(5);
  cluster::Cluster c(sim, test_cluster_config());
  m.attach(c, 0);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    m.on_replica_read_rtt(0, 400 + (i % 50), false);
    m.on_replica_read_rtt(5, 8000 + (i % 500), true);
  }
  const auto s = m.snapshot(1000);
  ASSERT_EQ(s.est_read_latency_by_k_us.size(), 5u);
  // k=1..3 are local (rf_local=3); k=4..5 add remote replicas -> big jump.
  EXPECT_LE(s.est_read_latency_by_k_us[0], s.est_read_latency_by_k_us[2] + 100);
  EXPECT_GT(s.est_read_latency_by_k_us[3], s.est_read_latency_by_k_us[2] * 4);
  EXPECT_GE(s.est_read_latency_by_k_us[4] + 500,
            s.est_read_latency_by_k_us[3]);
}

TEST(Monitor, BehaviorFeaturesResetPerSnapshot) {
  Monitor m;
  sim::Simulation sim(6);
  cluster::Cluster c(sim, test_cluster_config());
  m.attach(c, 0);
  for (int i = 0; i < 60; ++i) m.record_write_issued(i * 1000, /*key=*/7, 2048);
  for (int i = 0; i < 40; ++i) m.record_read_issued(60000 + i * 1000, 7);
  auto s1 = m.snapshot(100000);
  EXPECT_NEAR(s1.write_share, 0.6, 1e-9);
  EXPECT_NEAR(s1.mean_value_size, 2048.0, 1e-9);
  EXPECT_LT(s1.key_entropy, 0.5);  // single key: fully concentrated
  // Next snapshot window is empty.
  auto s2 = m.snapshot(200000);
  EXPECT_EQ(s2.write_share, 0.0);
  EXPECT_EQ(s2.mean_value_size, 0.0);
}

TEST(Monitor, EntropyDistinguishesSkew) {
  Monitor m1, m2;
  sim::Simulation sim(7);
  cluster::Cluster c(sim, test_cluster_config());
  m1.attach(c, 0);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) m1.record_read_issued(i, rng.uniform_u64(100000));
  const auto uniform_state = m1.snapshot(1000);
  m2.attach(c, 0);
  for (int i = 0; i < 1000; ++i) m2.record_read_issued(i, i % 3);
  const auto skewed_state = m2.snapshot(1000);
  EXPECT_GT(uniform_state.key_entropy, skewed_state.key_entropy + 2.0);
}

}  // namespace
}  // namespace harmony::monitor
