#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/check.h"
#include "reference/reference_ring.h"

namespace harmony::cluster {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 5;
  cfg.latency = net::TieredLatencyModel::ec2_two_az();
  return cfg;
}

TEST(Cluster, PreloadPopulatesAllReplicas) {
  sim::Simulation sim(1);
  Cluster c(sim, small_config());
  c.preload_range(100, 512);
  for (Key k = 0; k < 100; ++k) {
    for (const auto r : c.replicas_for(k)) {
      EXPECT_TRUE(c.node(r).store().read(k).has_value());
    }
  }
  EXPECT_EQ(c.storage_bytes(), 100ull * 512 * 5);
}

TEST(Cluster, WriteReachesAllReplicasEventually) {
  sim::Simulation sim(2);
  Cluster c(sim, small_config());
  bool acked = false;
  c.client_write(0, 7, 256, resolve_count(1, 5), [&](const WriteResult& w) {
    EXPECT_TRUE(w.ok);
    acked = true;
  });
  sim.run();
  EXPECT_TRUE(acked);
  for (const auto r : c.replicas_for(7)) {
    const auto v = c.node(r).store().read(7);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->size_bytes, 256u);
  }
}

TEST(Cluster, ReadFindsWrittenValue) {
  sim::Simulation sim(3);
  Cluster c(sim, small_config());
  std::optional<ReadResult> result;
  c.client_write(0, 9, 128, resolve_count(5, 5), [&](const WriteResult& w) {
    ASSERT_TRUE(w.ok);
    c.client_read(1, 9, resolve_count(1, 5), [&](const ReadResult& r) {
      result = r;
    });
  });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->value_size, 128u);
  EXPECT_FALSE(result->stale);  // write at ALL completed before the read
}

TEST(Cluster, ReadOfMissingKeyIsOkNotFound) {
  sim::Simulation sim(4);
  Cluster c(sim, small_config());
  std::optional<ReadResult> result;
  c.client_read(0, 424242, resolve_count(2, 5),
                [&](const ReadResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_FALSE(result->found);
}

TEST(Cluster, AckLevelControlsResponseTime) {
  // Writing at ONE responds before writing at ALL under WAN latencies.
  sim::Simulation sim(5);
  Cluster c(sim, small_config());
  SimTime t_one = 0, t_all = 0;
  c.client_write(0, 1, 64, resolve_count(1, 5),
                 [&](const WriteResult&) { t_one = sim.now(); });
  sim.run();
  sim::Simulation sim2(5);
  Cluster c2(sim2, small_config());
  c2.client_write(0, 1, 64, resolve_count(5, 5),
                  [&](const WriteResult&) { t_all = sim2.now(); });
  sim2.run();
  EXPECT_LT(t_one, t_all);
}

// Quorum-overlap property: R+W>N reads are never stale, for several (R, W).
struct RwCase {
  int read_replicas;
  int write_acks;
};

class QuorumOverlapNeverStale : public ::testing::TestWithParam<RwCase> {};

TEST_P(QuorumOverlapNeverStale, UnderConcurrentLoad) {
  const auto rw = GetParam();
  sim::Simulation sim(42);
  auto cfg = small_config();
  cfg.read_repair_chance = 0;  // no help from repair
  Cluster c(sim, cfg);
  c.preload_range(4, 64);

  // Interleave writes and reads on a tiny hot key space.
  int stale = 0, judged = 0;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    sim.schedule(i * 300, [&, i] {
      const Key key = i % 4;
      const auto dc = static_cast<net::DcId>(i % 2);
      if (i % 2 == 0) {
        c.client_write(dc, key, 64, resolve_count(rw.write_acks, 5),
                       [](const WriteResult&) {});
      } else {
        c.client_read(dc, key, resolve_count(rw.read_replicas, 5),
                      [&](const ReadResult& r) {
                        if (r.ok) {
                          ++judged;
                          if (r.stale) ++stale;
                        }
                      });
      }
    });
  }
  sim.run();
  EXPECT_GT(judged, 100);
  EXPECT_EQ(stale, 0) << "R=" << rw.read_replicas << " W=" << rw.write_acks;
}

INSTANTIATE_TEST_SUITE_P(Overlapping, QuorumOverlapNeverStale,
                         ::testing::Values(RwCase{3, 3}, RwCase{5, 1},
                                           RwCase{1, 5}, RwCase{4, 2}));

TEST(Cluster, WeakReadsGoStaleUnderConcurrentLoad) {
  sim::Simulation sim(43);
  auto cfg = small_config();
  cfg.read_repair_chance = 0;
  Cluster c(sim, cfg);
  c.preload_range(2, 64);
  int stale = 0, judged = 0;
  // One hot key, written from DC 0 at a period shorter than the cross-DC
  // propagation delay; readers alternate DCs, so DC-1 readers keep hitting
  // their local (still-stale) replica.
  for (int i = 0; i < 600; ++i) {
    sim.schedule(i * 150, [&, i] {
      const Key key = 0;
      if (i % 3 == 0) {
        c.client_write(0, key, 64, resolve_count(1, 5),
                       [](const WriteResult&) {});
      } else {
        const auto dc = static_cast<net::DcId>(i % 2);
        c.client_read(dc, key, resolve_count(1, 5), [&](const ReadResult& r) {
          if (r.ok) {
            ++judged;
            if (r.stale) ++stale;
          }
        });
      }
    });
  }
  sim.run();
  EXPECT_GT(judged, 200);
  EXPECT_GT(stale, 0);  // R=1/W=1 on a hot key must produce stale reads
}

TEST(Cluster, ReadRepairConvergesReplicas) {
  sim::Simulation sim(44);
  auto cfg = small_config();
  cfg.read_repair_chance = 1.0;  // always repair the full replica set
  Cluster c(sim, cfg);
  std::optional<Version> written;
  c.client_write(0, 5, 64, resolve_count(1, 5),
                 [&](const WriteResult& w) { written = w.version; });
  sim.run();
  // One read at ONE triggers global repair of every replica.
  c.client_read(0, 5, resolve_count(1, 5), [](const ReadResult&) {});
  sim.run();
  ASSERT_TRUE(written.has_value());
  int holding = 0;
  for (const auto r : c.replicas_for(5)) {
    const auto v = c.node(r).store().read(5);
    if (v.has_value() && v->version == *written) ++holding;
  }
  EXPECT_EQ(holding, 5);
  EXPECT_GT(c.read_repairs_sent(), 0u);
}

TEST(Cluster, NetStatsAccountTraffic) {
  sim::Simulation sim(6);
  Cluster c(sim, small_config());
  c.client_write(0, 3, 1024, resolve_count(5, 5), [](const WriteResult&) {});
  sim.run();
  const auto& net = c.net_stats();
  EXPECT_GT(net.total_messages(), 5u);
  EXPECT_GT(net.total_bytes(), 5ull * 1024);
  // NTS rf 3/2 across two DCs: some replicas are remote from the coordinator.
  EXPECT_GT(net.cross_dc_bytes(), 0u);
}

TEST(Cluster, ReplicaOpsCounted) {
  sim::Simulation sim(7);
  Cluster c(sim, small_config());
  c.client_write(0, 3, 64, resolve_count(1, 5), [](const WriteResult&) {});
  sim.run();
  EXPECT_EQ(c.replica_ops(), 5u);  // all five replicas applied the mutation
  c.client_read(0, 3, resolve_count(2, 5), [](const ReadResult&) {});
  sim.run();
  EXPECT_EQ(c.replica_ops(), 7u);  // +1 data read, +1 digest
}

TEST(Cluster, EachQuorumWrite) {
  sim::Simulation sim(8);
  Cluster c(sim, small_config());
  ReplicaRequirement req = resolve(Level::kEachQuorum, 5, 3);
  bool ok = false;
  c.client_write(0, 11, 64, req, [&](const WriteResult& w) { ok = w.ok; });
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(Cluster, LocalQuorumFasterThanGlobalAll) {
  auto run_one = [](ReplicaRequirement req) {
    sim::Simulation sim(9);
    auto cfg = small_config();
    cfg.latency = net::TieredLatencyModel::grid5000_two_sites();
    Cluster c(sim, cfg);
    SimTime done = 0;
    c.client_write(0, 13, 64, req, [&](const WriteResult&) { done = sim.now(); });
    sim.run();
    return done;
  };
  const auto local = run_one(resolve(Level::kLocalQuorum, 5, 3));
  const auto all = run_one(resolve(Level::kAll, 5, 3));
  EXPECT_LT(local, all);  // LOCAL_QUORUM avoids the WAN wait
}

TEST(Cluster, RejectsRfBeyondNodes) {
  sim::Simulation sim(10);
  ClusterConfig cfg = small_config();
  cfg.node_count = 3;
  cfg.rf = 5;
  EXPECT_THROW(Cluster(sim, cfg), harmony::CheckError);
}

// Determinism regression: a full mixed read/write workload with mid-run
// failure injection must be bit-reproducible from the seed (same event count,
// same final clock, same byte/staleness accounting).
struct DeterminismFingerprint {
  std::uint64_t events = 0;
  SimTime final_now = 0;
  std::uint64_t replica_ops = 0;
  std::uint64_t stale = 0;
  std::uint64_t ok = 0;
  std::uint64_t repairs = 0;

  bool operator==(const DeterminismFingerprint&) const = default;
};

DeterminismFingerprint deterministic_workload(std::uint64_t seed) {
  sim::Simulation sim(seed);
  Cluster c(sim, small_config());
  c.preload_range(200, 256);
  Rng rng = sim.fork_rng(0x50AD);
  DeterminismFingerprint fp;
  for (int i = 0; i < 400; ++i) {
    const Key key = rng.uniform_u64(200);
    const net::DcId dc = static_cast<net::DcId>(rng.uniform_u64(2));
    if (rng.chance(0.5)) {
      c.client_write(dc, key, 128, resolve_count(1, 5),
                     [&fp](const WriteResult& w) { fp.ok += w.ok ? 1 : 0; });
    } else {
      c.client_read(dc, key, resolve_count(2, 5), [&fp](const ReadResult& r) {
        fp.ok += r.ok ? 1 : 0;
        fp.stale += r.stale ? 1 : 0;
      });
    }
    if (i == 150) c.kill_node(3);
    if (i == 300) c.revive_node(3);
    sim.run();
  }
  fp.events = sim.events_processed();
  fp.final_now = sim.now();
  fp.replica_ops = c.replica_ops();
  fp.repairs = c.read_repairs_sent();
  return fp;
}

TEST(Cluster, DeterministicAcrossRuns) {
  const auto a = deterministic_workload(77);
  const auto b = deterministic_workload(77);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.events, 1000u);
  EXPECT_GT(a.ok, 300u);

  const auto c = deterministic_workload(78);
  EXPECT_FALSE(a == c);  // different seed, different trajectory
}

TEST(Cluster, PlacementSurvivesMembershipChanges) {
  // Placement is a pure function of key, ring and rf — liveness is not an
  // input — so the placement table is built once and the preload base's
  // routing contract survives faults: 1,000 keys' replica sets survive a
  // kill and the revive.
  sim::Simulation sim(5);
  Cluster c(sim, small_config());
  constexpr Key kKeys = 1000;
  std::vector<ReplicaList> before;
  for (Key k = 0; k < kKeys; ++k) before.push_back(c.replicas_for(k));
  c.kill_node(before[42][0]);
  for (Key k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(c.replicas_for(k) == before[k]) << "after kill, key " << k;
  }
  c.revive_node(before[42][0]);
  for (Key k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(c.replicas_for(k) == before[k]) << "after revive, key " << k;
  }
}

// The per-arc placement table must serve, for every key, the textbook NTS
// walk over the global ring (tests/reference/reference_ring.h) — for each rf
// split on the default kernel, and for the one-DC shape also cut into two
// key-range shards (the table is shared by every shard).
TEST(Cluster, PlacementTableMatchesReferenceWalk) {
  struct Shape {
    std::size_t nodes, dcs;
    int rf;
    std::vector<int> split;
  };
  const SimDuration lookahead = usec(150);
  for (const Shape& shape :
       {Shape{10, 2, 3, {2, 1}}, Shape{12, 3, 3, {1, 1, 1}},
        Shape{10, 2, 5, {3, 2}}, Shape{8, 1, 3, {3}}}) {
    ClusterConfig cfg;
    cfg.node_count = shape.nodes;
    cfg.dc_count = shape.dcs;
    cfg.rf = shape.rf;
    ASSERT_EQ(cfg.rf_per_dc(), shape.split);
    // Floors that let the key-range kernel accept the config.
    cfg.latency.same_rack.floor = lookahead;
    cfg.latency.same_dc.floor = lookahead;
    const int kernels = shape.dcs == 1 ? 2 : 1;
    for (int kernel = 0; kernel < kernels; ++kernel) {
      sim::Simulation sim(40 + kernel);
      if (kernel == 1) sim.configure_shards(2, lookahead, 1);
      Cluster c(sim, cfg);
      for (Key k = 0; k < 10'000; ++k) {
        const ReplicaList& served = c.replicas_for(k);
        ASSERT_EQ(std::vector<net::NodeId>(served.begin(), served.end()),
                  harmony::testing::reference_nts(c.ring(), c.topology(), k,
                                                  shape.split))
            << "rf " << shape.rf << " over " << shape.dcs << " DCs, kernel "
            << kernel << ", key " << k;
      }
    }
  }
}

// Sharded, the cluster's one DC is cut into token ranges: a key's home shard
// is its token's range, one owner per key, and a uniform key stream gives
// every shard a slice. Unsharded, everything homes on shard 0.
TEST(Cluster, KeyRangeOwnershipPartitionsTheDc) {
  ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.dc_count = 1;
  cfg.rf = 3;
  cfg.latency.same_rack.floor = usec(150);
  cfg.latency.same_dc.floor = usec(150);
  sim::Simulation sim(9);
  sim.configure_shards(4, usec(150), 1);
  Cluster c(sim, cfg);
  std::uint64_t per_shard[4] = {0, 0, 0, 0};
  for (Key k = 0; k < 4000; ++k) {
    const std::uint32_t s = c.home_shard(k);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, TokenRing::range_of(TokenRing::token_for(k), 4));
    ++per_shard[s];
  }
  for (const std::uint64_t n : per_shard) EXPECT_GT(n, 500u);

  sim::Simulation unsharded(9);
  Cluster one(unsharded, cfg);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(one.home_shard(k), 0u);
}

TEST(Cluster, ObserverSeesPropagation) {
  struct Probe : ClusterObserver {
    int propagated = 0;
    std::size_t delays_seen = 0;
    void on_write_propagated(Key, SimTime, const DelayList& d) override {
      ++propagated;
      delays_seen = d.size();
    }
  };
  sim::Simulation sim(11);
  Cluster c(sim, small_config());
  Probe probe;
  c.set_observer(&probe);
  c.client_write(0, 2, 64, resolve_count(1, 5), [](const WriteResult&) {});
  sim.run();
  EXPECT_EQ(probe.propagated, 1);
  EXPECT_EQ(probe.delays_seen, 5u);
}

}  // namespace
}  // namespace harmony::cluster
