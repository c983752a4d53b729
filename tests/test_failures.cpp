// Failure injection: dead replicas, unavailability, hinted handoff, recovery.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/cluster.h"

namespace harmony::cluster {
namespace {

ClusterConfig cfg_rf3() {
  ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.dc_count = 2;
  cfg.rf = 3;
  cfg.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.request_timeout = 200 * kMillisecond;
  return cfg;
}

TEST(Failures, WriteSucceedsWithOneReplicaDown) {
  sim::Simulation sim(1);
  Cluster c(sim, cfg_rf3());
  const auto replicas = c.replicas_for(5);
  c.kill_node(replicas[1]);
  bool ok = false;
  c.client_write(0, 5, 64, resolve_count(2, 3),
                 [&](const WriteResult& w) { ok = w.ok; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(c.alive_count(), 7u);
}

TEST(Failures, WriteUnavailableWhenTooManyDead) {
  sim::Simulation sim(2);
  Cluster c(sim, cfg_rf3());
  const auto replicas = c.replicas_for(5);
  c.kill_node(replicas[0]);
  c.kill_node(replicas[1]);
  bool ok = true;
  c.client_write(0, 5, 64, resolve_count(3, 3),
                 [&](const WriteResult& w) { ok = w.ok; });
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_GE(c.unavailable(), 1u);
}

TEST(Failures, ReadUnavailableWhenAllReplicasDead) {
  sim::Simulation sim(3);
  Cluster c(sim, cfg_rf3());
  c.preload_range(10, 64);
  for (const auto r : c.replicas_for(5)) c.kill_node(r);
  std::optional<ReadResult> result;
  c.client_read(0, 5, resolve_count(1, 3),
                [&](const ReadResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST(Failures, ReadSkipsDeadReplicas) {
  sim::Simulation sim(4);
  Cluster c(sim, cfg_rf3());
  c.preload_range(10, 64);
  const auto replicas = c.replicas_for(5);
  c.kill_node(replicas[0]);
  std::optional<ReadResult> result;
  c.client_read(0, 5, resolve_count(2, 3),
                [&](const ReadResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_TRUE(result->found);
}

TEST(Failures, HintStoredForDeadReplicaAndReplayedOnRevival) {
  sim::Simulation sim(5);
  Cluster c(sim, cfg_rf3());
  const auto replicas = c.replicas_for(9);
  const auto dead = replicas[2];
  c.kill_node(dead);
  std::optional<Version> version;
  c.client_write(0, 9, 64, resolve_count(1, 3),
                 [&](const WriteResult& w) { version = w.version; });
  sim.run();
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(c.hints().pending(dead), 1u);
  EXPECT_FALSE(c.node(dead).store().read(9).has_value());

  c.revive_node(dead);
  sim.run();
  EXPECT_EQ(c.hints().pending(dead), 0u);
  const auto v = c.node(dead).store().read(9);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, *version);
}

TEST(Failures, HintsBatchAcrossKeys) {
  sim::Simulation sim(6);
  Cluster c(sim, cfg_rf3());
  // Find two keys sharing a replica, kill it, write both.
  const auto replicas = c.replicas_for(1);
  const auto dead = replicas[0];
  c.kill_node(dead);
  int writes_done = 0;
  for (Key k = 0; k < 50; ++k) {
    c.client_write(0, k, 32, resolve_count(1, 3),
                   [&](const WriteResult&) { ++writes_done; });
  }
  sim.run();
  EXPECT_EQ(writes_done, 50);
  EXPECT_GT(c.hints().pending(dead), 0u);
  c.revive_node(dead);
  sim.run();
  EXPECT_EQ(c.hints().pending(dead), 0u);
  EXPECT_GT(c.hints().replayed(), 0u);
}

TEST(Failures, CoordinatorAvoidsDeadNodes) {
  sim::Simulation sim(7);
  Cluster c(sim, cfg_rf3());
  c.preload_range(4, 64);
  // Kill every node in DC 0; clients homed there still get service via DC 1.
  for (const auto n : c.topology().nodes_in_dc(0)) c.kill_node(n);
  std::optional<ReadResult> result;
  c.client_read(0, 1, resolve_count(1, 3),
                [&](const ReadResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  // Key 1's replicas: NTS puts 2 in dc0 (dead) and 1 in dc1 -> readable.
  EXPECT_TRUE(result->ok);
}

TEST(Failures, RevivedNodeServesReads) {
  sim::Simulation sim(8);
  Cluster c(sim, cfg_rf3());
  c.preload_range(10, 64);
  const auto replicas = c.replicas_for(3);
  c.kill_node(replicas[0]);
  c.revive_node(replicas[0]);
  std::optional<ReadResult> result;
  c.client_read(0, 3, resolve_count(3, 3),
                [&](const ReadResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
}

TEST(Failures, DoubleKillAndReviveAreIdempotent) {
  sim::Simulation sim(9);
  Cluster c(sim, cfg_rf3());
  c.kill_node(0);
  c.kill_node(0);
  EXPECT_EQ(c.alive_count(), 7u);
  c.revive_node(0);
  c.revive_node(0);
  EXPECT_EQ(c.alive_count(), 8u);
}

TEST(Failures, NoAliveNodeComesBackUnavailable) {
  // Every node dies at 1 s and revives at 2 s. A request issued during the
  // outage has no coordinator anywhere: it comes back unavailable (no
  // abort, no timeout, no hint), and requests after the revival succeed.
  sim::Simulation sim(10);
  ClusterConfig cfg = cfg_rf3();
  cfg.node_count = 6;
  Cluster c(sim, cfg);
  c.preload_range(100, 64);
  for (net::NodeId n = 0; n < 6; ++n) {
    c.schedule_fault({sec(1), FaultOp::kKillNode, n});
    c.schedule_fault({sec(2), FaultOp::kReviveNode, n});
  }
  struct Outcome {
    SimTime issued;
    bool ok;
  };
  std::vector<Outcome> outcomes;
  std::size_t issued = 0;
  for (SimTime t = msec(10); t < sec(3); t += msec(20)) {
    sim.schedule_at(t, [&c, &outcomes, &issued, t] {
      const Key key = static_cast<Key>(t / msec(20)) % 100;
      c.client_read(0, key, resolve_count(1, 3),
                    [&outcomes, t](const ReadResult& r) {
                      outcomes.push_back({t, r.ok});
                    });
      c.client_write(1, key, 64, resolve_count(1, 3),
                     [&outcomes, t](const WriteResult& w) {
                       outcomes.push_back({t, w.ok});
                     });
      issued += 2;
    });
  }
  ASSERT_NO_THROW(sim.run());

  ASSERT_EQ(outcomes.size(), issued);  // every request ends exactly once
  std::uint64_t during = 0, after = 0;
  for (const Outcome& o : outcomes) {
    if (o.issued > sec(1) && o.issued < sec(2)) {
      EXPECT_FALSE(o.ok) << "issued at " << o.issued;
      ++during;
    } else if (o.issued > sec(2)) {
      EXPECT_TRUE(o.ok) << "issued at " << o.issued;
      ++after;
    }
  }
  EXPECT_GT(during, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_EQ(c.unavailable(), during);
  EXPECT_EQ(c.hints_stored(), 0u);
  EXPECT_EQ(c.alive_count(), 6u);
}

}  // namespace
}  // namespace harmony::cluster
