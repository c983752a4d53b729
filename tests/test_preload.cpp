// Cluster::preload_range: the dataset load as one closed-form base a store.
//
// Pins what the base layer promises: its footprint does not grow with the
// key count, every replica reads the version the explicit per-key load gave
// (on every event kernel), the load is a once-before-traffic contract, and
// the routing contract it rests on holds: every store access the cluster
// makes, under faults and every repair path, targets a replica of its key
// (docs/INVARIANTS.md, "Immutable placement and the preload base").
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "alloc_guard.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace harmony::cluster {
namespace {

ClusterConfig three_dc_config() {
  ClusterConfig cfg;
  cfg.node_count = 12;
  cfg.dc_count = 3;
  cfg.rf = 3;
  return cfg;
}

/// Heap bytes preload_range asks for to load `count` keys of 256 bytes onto
/// the 12-node, rf-3 cluster, whose bill must count each key three times.
std::uint64_t preload_heap_bytes(std::uint64_t count) {
  sim::Simulation sim(1);
  Cluster c(sim, three_dc_config());
  const harmony::testing::AllocGuard guard;
  c.preload_range(count, 256);
  const std::uint64_t bytes = guard.bytes();
  EXPECT_EQ(c.storage_bytes(), count * 3 * 256);
  for (net::NodeId n = 0; n < 12; ++n) {
    EXPECT_EQ(c.node(n).store().key_count(), 0u) << "node " << n;
  }
  return bytes;
}

TEST(Preload, FootprintDoesNotGrowWithKeyCount) {
  EXPECT_EQ(preload_heap_bytes(1'000'000), preload_heap_bytes(2'000'000));
}

TEST(Preload, SecondPreloadThrows) {
  sim::Simulation sim(2);
  Cluster c(sim, three_dc_config());
  c.preload_range(100, 64);
  EXPECT_THROW(c.preload_range(100, 64), CheckError);
}

TEST(Preload, PreloadAfterAWriteThrows) {
  sim::Simulation sim(3);
  Cluster c(sim, three_dc_config());
  bool ok = false;
  c.client_write(0, 7, 64, resolve_count(1, 3),
                 [&ok](const WriteResult& w) { ok = w.ok; });
  sim.run();
  ASSERT_TRUE(ok);
  EXPECT_THROW(c.preload_range(100, 64), CheckError);
}

/// Every preloaded key reads {0, (k+1)·S} on each of its replicas — the
/// stamp the k-th write issued on shard 0 of an S-shard kernel gets — and
/// the first key past the load reads nothing. Stops at the first wrong key.
void expect_preload_placement(sim::Simulation& sim, const ClusterConfig& cfg,
                              std::uint64_t count) {
  Cluster c(sim, cfg);
  c.preload_range(count, 128);
  const std::uint64_t shards = c.shard_count();
  for (Key k = 0; k < count; ++k) {
    for (const net::NodeId n : c.replicas_for(k)) {
      const std::optional<VersionedValue> v = c.node(n).store().read(k);
      ASSERT_TRUE(v.has_value()) << "key " << k << " node " << n;
      ASSERT_EQ(v->version, (Version{0, (k + 1) * shards})) << "key " << k;
      ASSERT_EQ(v->size_bytes, 128u);
    }
  }
  for (const net::NodeId n : c.replicas_for(count)) {
    EXPECT_FALSE(c.node(n).store().read(count).has_value()) << "node " << n;
  }
  EXPECT_EQ(c.storage_bytes(), count * 3 * 128);
}

TEST(Preload, PlacementAndVersionsOnEveryKernel) {
  for (const std::uint64_t count :
       {std::uint64_t{500}, std::uint64_t{65'535}, std::uint64_t{65'599},
        std::uint64_t{200'003}}) {
    SCOPED_TRACE(count);
    {
      sim::Simulation sim(4);  // default one-shard kernel
      expect_preload_placement(sim, three_dc_config(), count);
    }
    {
      sim::Simulation sim(6);  // one DC cut into two key-range shards
      ClusterConfig cfg = three_dc_config();
      cfg.dc_count = 1;
      const SimDuration lookahead = usec(150);
      cfg.latency.same_rack.floor = lookahead;
      cfg.latency.same_dc.floor = lookahead;
      sim.configure_shards(2, lookahead, 1);
      expect_preload_placement(sim, cfg, count);
    }
  }
}

TEST(Preload, EveryStoreAccessTargetsAReplica) {
  // A serial run through every path that reaches a store: client reads and
  // writes, read repair, anti-entropy, hedged reads, retries, and a killed
  // node's hints replayed on its revive, over keys below and above the
  // preload count. The cluster must send a store only keys its node
  // replicates. Past the count no base holds the key, so one sent anywhere
  // else would stay in that store's table: only its replicas may hold it.
  constexpr std::uint64_t kCount = 150;
  constexpr std::uint64_t kKeys = 300;
  sim::Simulation sim(0x9E10AD);
  ClusterConfig cfg = three_dc_config();
  cfg.read_repair_chance = 0.5;
  cfg.anti_entropy_period = msec(20);
  cfg.request_timeout = 30 * kMillisecond;
  cfg.resilience.hedge_reads = true;
  cfg.resilience.hedge_quantile = 0.9;
  cfg.resilience.hedge_fallback_delay = usec(300);
  cfg.resilience.read_retries = 1;
  cfg.resilience.retry_backoff = msec(2);
  Cluster c(sim, cfg);
  c.preload_range(kCount, 256);
  c.schedule_fault({100 * kMillisecond, FaultOp::kDegradeNode, 1, 0, 25.0});
  c.schedule_fault({400 * kMillisecond, FaultOp::kRestoreNode, 1, 0, 1.0});
  c.schedule_fault({150 * kMillisecond, FaultOp::kKillNode, 2, 0, 1.0});
  c.schedule_fault({350 * kMillisecond, FaultOp::kReviveNode, 2, 0, 1.0});

  Rng traffic(0x57012);
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  for (; issued < 1500; ++issued) {
    const SimTime at =
        static_cast<SimTime>(traffic.uniform_u64(500 * kMillisecond));
    const Key key = traffic.uniform_u64(kKeys);
    const auto dc = static_cast<net::DcId>(traffic.uniform_u64(3));
    const int k = 1 + static_cast<int>(traffic.uniform_u64(3));
    const bool is_write = traffic.chance(0.4);
    sim.schedule_at(at, [&c, &completed, key, dc, k, is_write] {
      if (is_write) {
        c.client_write(dc, key, 200, resolve_count(k, 3),
                       [&completed](const WriteResult&) { ++completed; });
      } else {
        c.client_read(dc, key, resolve_count(k, 3),
                      [&completed](const ReadResult&) { ++completed; });
      }
    });
  }
  sim.run();
  EXPECT_EQ(completed, issued);
  EXPECT_GT(c.read_repairs_sent(), 0u);
  EXPECT_GT(c.anti_entropy_repairs(), 0u);
  EXPECT_GT(c.hedges_fired(), 0u);
  EXPECT_GT(c.retries(), 0u);
  EXPECT_GT(c.hints().replayed(), 0u);

  // Every key a store holds beyond its base is one of [kCount, kKeys) on
  // one of its replicas.
  std::uint64_t held = 0;
  for (Key k = kCount; k < kKeys; ++k) {
    const ReplicaList& replicas = c.replicas_for(k);
    for (net::NodeId n = 0; n < cfg.node_count; ++n) {
      if (!c.node(n).store().read(k).has_value()) continue;
      EXPECT_NE(std::ranges::find(replicas, n), replicas.end())
          << "key " << k << " on node " << n;
      ++held;
    }
  }
  EXPECT_GT(held, 0u);
  std::uint64_t beyond_base = 0;
  for (net::NodeId n = 0; n < cfg.node_count; ++n) {
    beyond_base += c.node(n).store().key_count();
  }
  EXPECT_EQ(beyond_base, held);
}

}  // namespace
}  // namespace harmony::cluster
