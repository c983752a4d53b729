// SlotPool regression tests: slot recycling must never let a stale handle
// observe (or corrupt) the slot's next occupant, and kill/revive churn in the
// cluster must leave no request-path state behind — the exact hazards the
// generation check exists to prevent.
#include "common/slot_pool.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"

namespace harmony {
namespace {

struct Record {
  int tag = 0;
};

TEST(SlotPool, AcquireGetRelease) {
  SlotPool<Record> pool;
  const auto [h, r] = pool.acquire();
  r->tag = 7;
  ASSERT_NE(pool.get(h), nullptr);
  EXPECT_EQ(pool.get(h)->tag, 7);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(h);
  EXPECT_EQ(pool.get(h), nullptr);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlotPool, DefaultHandleNeverResolves) {
  SlotPool<Record> pool;
  SlotPool<Record>::Handle h;
  EXPECT_EQ(pool.get(h), nullptr);
}

TEST(SlotPool, ReleaseResetsRecordToDefaultState) {
  SlotPool<Record> pool;
  const auto [h, r] = pool.acquire();
  r->tag = 99;
  pool.release(h);
  // LIFO free list: the next acquire reuses the same slot; it must come back
  // default-constructed, not carrying the previous request's state.
  const auto [h2, r2] = pool.acquire();
  EXPECT_EQ(h2.slot, h.slot);
  EXPECT_EQ(r2->tag, 0);
}

// The regression the generation check exists for: a recycled slot must never
// satisfy a handle from the slot's previous life. Dropping the generation
// compare in SlotPool::get would make stale->tag read the *new* request's
// record and fail both expectations below.
TEST(SlotPool, RecycledSlotDoesNotSatisfyStaleHandle) {
  SlotPool<Record> pool;
  const auto [stale, r] = pool.acquire();
  r->tag = 1;
  pool.release(stale);

  const auto [fresh, r2] = pool.acquire();
  ASSERT_EQ(fresh.slot, stale.slot);  // same slot, new generation
  r2->tag = 2;

  EXPECT_EQ(pool.get(stale), nullptr)
      << "stale handle resolved to a recycled slot's new occupant";
  ASSERT_NE(pool.get(fresh), nullptr);
  EXPECT_EQ(pool.get(fresh)->tag, 2);
}

TEST(SlotPool, ReleasingStaleHandleIsRejected) {
  SlotPool<Record> pool;
  const auto [stale, r] = pool.acquire();
  (void)r;
  pool.release(stale);
  const auto [fresh, r2] = pool.acquire();
  (void)r2;
  ASSERT_EQ(fresh.slot, stale.slot);
  // A double release through the stale handle would free the new occupant.
  EXPECT_THROW(pool.release(stale), CheckError);
  EXPECT_NE(pool.get(fresh), nullptr);  // occupant unharmed
}

TEST(SlotPool, ChurnRecyclesWithoutAliasing) {
  SlotPool<Record> pool;
  std::vector<std::pair<SlotPool<Record>::Handle, int>> hist;
  int tag = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<SlotPool<Record>::Handle> live;
    for (int i = 0; i < 17; ++i) {
      const auto [h, r] = pool.acquire();
      r->tag = ++tag;
      live.push_back(h);
      hist.emplace_back(h, tag);
    }
    for (const auto h : live) pool.release(h);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_LE(pool.capacity(), 64u);  // slots were recycled, not leaked
  for (const auto& [h, t] : hist) {
    EXPECT_EQ(pool.get(h), nullptr);  // every historical handle is stale
  }
}

}  // namespace

namespace cluster {
namespace {

// Kill/revive flush consistency at the cluster level: membership churn while
// requests (and their timeout handles) are in flight must neither resurrect
// completed requests through recycled pending slots nor leave cached replica
// placements pointing at the pre-churn membership. The run fails loudly (lost
// callbacks, double callbacks, CheckError) if either flush is dropped.
TEST(ClusterSlotRecycling, KillReviveChurnLeavesNoStaleRequestState) {
  sim::Simulation sim(77);
  ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.dc_count = 2;
  cfg.rf = 3;
  cfg.request_timeout = 40 * kMillisecond;
  Cluster c(sim, cfg);
  c.preload_range(64, 128);

  std::uint64_t issued = 0, completed = 0;
  Rng rng = sim.fork_rng(5);
  // Interleave traffic with kill/revive of rotating victims so timeouts fire
  // after their requests' slots were recycled by later traffic.
  for (int wave = 0; wave < 30; ++wave) {
    const SimTime at = wave * 15 * kMillisecond;
    sim.schedule_at(at, [&c, &rng, &issued, &completed] {
      for (int i = 0; i < 8; ++i) {
        const Key key = rng.uniform_u64(64);
        const auto dc = static_cast<net::DcId>(rng.uniform_u64(2));
        if (rng.chance(0.4)) {
          ++issued;
          c.client_write(dc, key, 128, resolve_count(2, 3),
                         [&completed](const WriteResult&) { ++completed; });
        } else {
          ++issued;
          c.client_read(dc, key, resolve_count(2, 3),
                        [&completed](const ReadResult&) { ++completed; });
        }
      }
    });
    const auto victim = static_cast<net::NodeId>(wave % cfg.node_count);
    sim.schedule_at(at + 2 * kMillisecond, [&c, victim] {
      if (c.alive_count() > 4) c.kill_node(victim);
    });
    sim.schedule_at(at + 9 * kMillisecond,
                    [&c, victim] { c.revive_node(victim); });
  }
  sim.run();

  EXPECT_EQ(completed, issued);  // exactly one callback per request
  EXPECT_EQ(c.oracle().inflight_reads(), 0u);
  EXPECT_EQ(c.alive_count(), cfg.node_count);
  // Membership churn never touches placement: the table still serves what a
  // fresh ring walk computes.
  const DcCounts rf_per_dc{2, 1};  // rf=3 split over 2 DCs under NTS
  for (Key key = 0; key < 64; ++key) {
    const ReplicaList& served = c.replicas_for(key);
    ReplicaList walked;
    c.ring().replicas_nts(key, rf_per_dc, walked);
    EXPECT_EQ(served, walked);
  }
}

}  // namespace
}  // namespace cluster
}  // namespace harmony
