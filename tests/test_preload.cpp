// Cluster::preload_range: the dataset load as a per-store bitmap base.
//
// Pins the three things the base layer promises: its footprint is one bit
// per (node, key) rather than a hash-table entry, every replica reads the
// version the explicit per-key load gave (on every event kernel, whether
// the bitmaps were filled on one thread or on set-up threads), and the load
// is a once-before-traffic contract. Built into the thread-pool suite, which
// CI also runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "alloc_guard.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "common/threads.h"
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
/// stamp the k-th write issued on shard 0 of an S-shard kernel gets — and
/// every node's key count is the number of keys it replicates. Stops at
/// the first wrong key.
void expect_preload_placement(sim::Simulation& sim, const ClusterConfig& cfg,
                              std::uint64_t count) {
  Cluster c(sim, cfg);
  c.preload_range(count, 128);
  const std::uint64_t shards = c.shard_count();
  std::vector<std::uint64_t> replicated(cfg.node_count, 0);
  for (Key k = 0; k < count; ++k) {
    const ReplicaList replicas = c.replicas_for(k);
    for (net::NodeId n = 0; n < cfg.node_count; ++n) {
      const std::optional<VersionedValue> v = c.node(n).store().read(k);
      if (std::ranges::find(replicas, n) == replicas.end()) {
        ASSERT_FALSE(v.has_value()) << "key " << k << " node " << n;
        continue;
      }
      ++replicated[n];
      ASSERT_TRUE(v.has_value()) << "key " << k << " node " << n;
      ASSERT_EQ(v->version, (Version{0, (k + 1) * shards})) << "key " << k;
      ASSERT_EQ(v->size_bytes, 128u);
    }
  }
  for (net::NodeId n = 0; n < cfg.node_count; ++n) {
    EXPECT_EQ(c.node(n).store().key_count(), replicated[n]) << "node " << n;
  }
  EXPECT_FALSE(c.node(0).store().read(count).has_value());
}

TEST(Preload, PlacementAndVersionsOnEveryKernel) {
  // Every count fills claims of 256 bitmap words: 500 keys (one claim) and
  // 2^16 - 1 (four) in order on the calling thread, and from
  // kParallelSetupMin keys up on pool workers. 2^16 + 63 keys end in a
  // 63-key word; 200,003 keys span a dozen claims.
  for (const std::uint64_t count :
       {std::uint64_t{500}, kParallelSetupMin - 1, kParallelSetupMin + 63,
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

}  // namespace
}  // namespace harmony::cluster
