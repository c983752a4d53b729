// Steady-state zero-allocation assertion for the full cluster request path.
//
// After warm-up (event-queue slab, pending-request slot pools, oracle key
// table and commit log, replica-store tables all grown — a store's table is
// allocated and grown by the warm-up writes that copy preloaded keys out of
// its preload base, not by the preload), a closed loop of client reads and
// writes — schedule, route, replica service, commit, staleness judgement,
// completion — must touch the heap exactly zero times, at CL=ONE and at
// CL=QUORUM. This is the contract that lets the sweep runner push millions of
// simulated requests per second without allocator noise.
//
// Client callbacks capture a single pointer so the std::function stays within
// its small-buffer optimisation — matching how the benches drive the cluster.
#include <gtest/gtest.h>

#include <functional>

#include "alloc_guard.h"
#include "cluster/cluster.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace harmony::cluster {
namespace {

struct Driver {
  Cluster* cluster = nullptr;
  Rng rng{3};
  ZipfianKeys zipf{600};
  ReplicaRequirement req{};
  std::uint64_t done = 0;
  bool reissue = true;

  void issue() {
    const Key key = zipf.next(rng);
    const auto dc = static_cast<net::DcId>(rng.uniform_u64(2));
    if (rng.chance(0.3)) {
      cluster->client_write(dc, key, 512, req, [this](const WriteResult&) {
        ++done;
        if (reissue) issue();
      });
    } else {
      cluster->client_read(dc, key, req, [this](const ReadResult&) {
        ++done;
        if (reissue) issue();
      });
    }
  }
};

void run_steady_state(int level) {
  sim::Simulation sim(1);
  ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 3;
  Cluster c(sim, cfg);
  // 600 keys: past the oracle table's growth steps at 224 and 448 keys (7/8
  // of 256 and 512 slots) and short of its next at 896, so the key table
  // reaches its final size during warm-up even though the zipfian tail keys
  // show up late. (A growing working set legitimately grows tables; steady
  // state means a stable one.) Writes below hit only preloaded keys; the
  // first write to each one copies it into its replicas' tables, and with
  // ~180 keys per node those tables stay at their first 1024-slot
  // allocation (896 keys at 7/8 load), made during warm-up.
  c.preload_range(600, 512);

  Driver d{&c};
  d.req = resolve_count(level, 3);

  // Warm-up at *heavier* concurrency than the measured phase: every slab,
  // table, ring, and the oracle's commit log grows to a high-water mark the
  // measurement stays below (more in-flight reads hold the staleness horizon
  // open longer, so the warm-up log is strictly the longer one).
  constexpr int kWarmInflight = 64;
  constexpr int kInflight = 32;
  for (int i = 0; i < kWarmInflight; ++i) d.issue();
  sim.run_until(sim.now() + 600 * kMillisecond);
  d.reissue = false;
  sim.run();  // drain
  ASSERT_GT(d.done, 1000u) << "warm-up did not actually run traffic";

  // Measured phase: schedule -> route -> commit -> judge, zero allocations.
  const harmony::testing::AllocGuard guard;
  const std::uint64_t before = d.done;
  d.reissue = true;
  for (int i = 0; i < kInflight; ++i) d.issue();
  sim.run_until(sim.now() + 200 * kMillisecond);
  d.reissue = false;
  sim.run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "request path allocated in steady state at CL level " << level;
  EXPECT_GT(d.done - before, 500u);
  EXPECT_GT(c.oracle().judged_reads(), 0u);
}

TEST(RequestPathAllocation, SteadyStateIsAllocationFreeAtOne) {
  run_steady_state(1);
}

TEST(RequestPathAllocation, SteadyStateIsAllocationFreeAtQuorum) {
  run_steady_state(2);
}

}  // namespace
}  // namespace harmony::cluster
