// Cluster::preload_range: the dataset load as a per-store bitmap base.
//
// Pins the three things the base layer promises: its footprint is one bit
// per (node, key) rather than a hash-table entry, every replica reads the
// version the explicit per-key load gave (on every event kernel), and the
// load is a once-before-traffic contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "alloc_guard.h"
#include "cluster/cluster.h"
#include "common/check.h"
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

TEST(Preload, FootprintIsABitmapPerNode) {
  sim::Simulation sim(1);
  Cluster c(sim, three_dc_config());
  const harmony::testing::AllocGuard guard;
  c.preload_range(1'000'000, 256);
  // Twelve 125,000-byte bitmaps; explicit table entries for this load took
  // 384 MiB.
  EXPECT_LE(guard.bytes(), 2u << 20);
  std::uint64_t keys = 0;
  for (net::NodeId n = 0; n < 12; ++n) keys += c.node(n).store().key_count();
  EXPECT_EQ(keys, 3'000'000u);
  EXPECT_EQ(c.storage_bytes(), 768'000'000u);
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

/// Every preloaded key reads {0, (k+1)·S} on exactly its replicas — the
/// stamp the k-th write issued on shard 0 of an S-shard kernel gets.
void expect_preload_placement(sim::Simulation& sim, const ClusterConfig& cfg) {
  Cluster c(sim, cfg);
  constexpr std::uint64_t kCount = 500;
  c.preload_range(kCount, 128);
  const std::uint64_t shards = c.shard_count();
  for (Key k = 0; k < kCount; ++k) {
    const ReplicaList replicas = c.replicas_for(k);
    for (net::NodeId n = 0; n < cfg.node_count; ++n) {
      const std::optional<VersionedValue> v = c.node(n).store().read(k);
      if (std::ranges::find(replicas, n) == replicas.end()) {
        EXPECT_FALSE(v.has_value()) << "key " << k << " node " << n;
        continue;
      }
      ASSERT_TRUE(v.has_value()) << "key " << k << " node " << n;
      EXPECT_EQ(v->version, (Version{0, (k + 1) * shards})) << "key " << k;
      EXPECT_EQ(v->size_bytes, 128u);
    }
  }
  EXPECT_FALSE(c.node(0).store().read(kCount).has_value());
}

TEST(Preload, PlacementAndVersionsOnEveryKernel) {
  {
    sim::Simulation sim(4);  // default one-shard kernel
    expect_preload_placement(sim, three_dc_config());
  }
  {
    sim::Simulation sim(6);  // one DC cut into two key-range shards
    ClusterConfig cfg = three_dc_config();
    cfg.dc_count = 1;
    const SimDuration lookahead = usec(150);
    cfg.latency.same_rack.floor = lookahead;
    cfg.latency.same_dc.floor = lookahead;
    sim.configure_shards(2, lookahead, 1);
    expect_preload_placement(sim, cfg);
  }
}

}  // namespace
}  // namespace harmony::cluster
