// Resilience layer: hedged reads, coordinator retries, admission control,
// and scripted fault scenarios (DC blackout, degradation windows).
//
// The late-leg races are the point of most of these tests: a hedge leg and
// the original legs both responding, a retry backoff racing the original's
// late ack, a timeout firing while the replica's DC is blacked out, a node
// killed and revived while its hedge leg is in flight. All of them must
// resolve through the slot-pool generation checks with no double counting —
// `timeouts` counts only requests that exhausted every attempt.
//
// Built as its own binary (`ctest -L resilience`) and linked against
// alloc_guard.cpp so the steady-state zero-allocation contract can be
// asserted with every knob on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc_guard.h"
#include "cluster/cluster.h"
#include "cluster/consistency.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "core/harmony.h"
#include "core/static_policy.h"
#include "net/latency_model.h"
#include "sim/simulation.h"
#include "workload/runner.h"

namespace harmony {
namespace {

using cluster::AdmissionMode;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FaultOp;
using cluster::FaultSpec;
using cluster::ReadResult;
using cluster::WriteResult;

// ===========================================================================
// Cluster-level: hedged reads
// ===========================================================================

TEST(Hedging, HedgeFiresAndBothLegsRespond) {
  sim::Simulation sim(11);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 5;
  cfg.rf = 3;
  cfg.resilience.hedge_reads = true;
  // Far below any replica RTT (~1ms round trip): the hedge always fires
  // before the original legs respond, so all three legs end up in flight.
  cfg.resilience.hedge_fallback_delay = usec(50);
  Cluster c(sim, cfg);
  c.preload_range(32, 256);

  ReadResult got;
  int done = 0;
  c.client_read(0, 7, cluster::resolve_count(2, cfg.rf),
                [&](const ReadResult& r) {
                  got = r;
                  ++done;
                });
  sim.run();

  EXPECT_EQ(done, 1);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(c.hedges_fired(), 1u);
  // Two original contacts plus the hedge leg; the losing leg's late response
  // is suppressed by the generation check, never delivered twice.
  EXPECT_EQ(got.replicas_contacted, 3);
  EXPECT_EQ(c.timeouts(), 0u);

  // The slot is cleanly reusable after the race resolved.
  c.client_read(0, 8, cluster::resolve_count(2, cfg.rf),
                [&](const ReadResult&) { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
}

TEST(Hedging, FastResponsesCancelTheHedgeTimer) {
  sim::Simulation sim(12);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 5;
  cfg.rf = 3;
  cfg.resilience.hedge_reads = true;
  cfg.resilience.hedge_fallback_delay = sec(1);  // far past any response
  Cluster c(sim, cfg);
  c.preload_range(32, 256);

  ReadResult got;
  c.client_read(0, 7, cluster::resolve_count(2, cfg.rf),
                [&](const ReadResult& r) { got = r; });
  sim.run();

  EXPECT_TRUE(got.ok);
  EXPECT_EQ(c.hedges_fired(), 0u);
  EXPECT_EQ(got.replicas_contacted, 2);
}

TEST(Hedging, HedgeWinsAgainstDegradedReplica) {
  sim::Simulation sim(13);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 4;
  cfg.rf = 3;
  cfg.resilience.hedge_reads = true;
  // Median-quantile hedging: once the RTT histogram is warm the hedge delay
  // tracks the *healthy* RTT, so reads whose data leg hits the degraded node
  // keep hedging (a p99.9 delay would chase the degraded tail upward).
  cfg.resilience.hedge_quantile = 0.5;
  cfg.resilience.hedge_min_delay = usec(200);
  cfg.resilience.hedge_fallback_delay = usec(400);
  Cluster c(sim, cfg);
  c.preload_range(200, 256);

  // Node 1's links are ~25x slower for the whole run: Cassandra's "slow
  // replica" scenario that rapid read protection exists for.
  c.schedule_fault({0, FaultOp::kDegradeNode, 1, 0, 25.0});

  std::uint64_t done = 0, ok = 0;
  Rng traffic(99);
  for (int i = 0; i < 200; ++i) {
    const SimTime at = static_cast<SimTime>(traffic.uniform_u64(500 * kMillisecond));
    const cluster::Key key = traffic.uniform_u64(200);
    sim.schedule_at(at, [&c, &done, &ok, key] {
      c.client_read(0, key, cluster::resolve_count(1, 3),
                    [&](const ReadResult& r) {
                      ++done;
                      ok += r.ok;
                    });
    });
  }
  sim.run();

  EXPECT_EQ(done, 200u);
  EXPECT_EQ(ok, 200u);
  EXPECT_GT(c.hedges_fired(), 0u);
  // At CL=ONE a read whose only contact is the slow node is rescued by the
  // backup leg answering first.
  EXPECT_GT(c.hedge_wins(), 0u);
  EXPECT_EQ(c.timeouts(), 0u);
  // Warm histogram: the cached quantile replaced the fallback delay.
  EXPECT_NE(c.current_hedge_delay(), cfg.resilience.hedge_fallback_delay);
}

// ===========================================================================
// Cluster-level: coordinator retries and timeout accounting
// ===========================================================================

namespace {
/// Uniformly slow single-DC cluster: every non-loopback hop ~2ms with little
/// jitter, so a sub-RTT request timeout trips deterministically.
ClusterConfig slow_flat_cluster() {
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 3;
  cfg.rf = 3;
  cfg.latency.same_dc.base = usec(2000);
  cfg.latency.same_dc.sigma = 0.05;
  cfg.request_timeout = usec(2500);
  return cfg;
}
}  // namespace

TEST(Retries, LateAckRacingTheRetryBackoffRescuesTheRead) {
  sim::Simulation sim(21);
  ClusterConfig cfg = slow_flat_cluster();
  cfg.resilience.read_retries = 1;
  cfg.resilience.retry_backoff = msec(20);  // original ack lands well inside
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  // CL=2 of rf=3: the coordinator is itself a replica (loopback leg returns
  // instantly), the second leg takes ~4ms — past the 2.5ms attempt timeout.
  // The attempt times out, a retry is scheduled, and the original's late ack
  // arrives during the backoff window and completes the read.
  ReadResult got;
  c.client_read(0, 3, cluster::resolve_count(2, cfg.rf),
                [&](const ReadResult& r) { got = r; });
  sim.run();

  EXPECT_TRUE(got.ok);
  EXPECT_EQ(c.retries(), 1u);
  // The rescued request is a retry, not a timeout: no double counting.
  EXPECT_EQ(c.timeouts(), 0u);
}

TEST(Retries, ExhaustedAttemptsCountExactlyOneTimeout) {
  sim::Simulation sim(22);
  ClusterConfig cfg = slow_flat_cluster();
  cfg.resilience.read_retries = 5;
  cfg.resilience.retry_backoff = usec(100);
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  // CL=ALL contacts every replica up front: the untried-host set is empty,
  // so retries (even 5 of them) cannot apply and the attempt timeout is
  // final. Exactly one timeout despite the generous retry budget.
  ReadResult got;
  got.ok = true;
  c.client_read(0, 3, cluster::resolve_count(3, cfg.rf),
                [&](const ReadResult& r) { got = r; });
  sim.run();

  EXPECT_FALSE(got.ok);
  EXPECT_EQ(c.retries(), 0u);
  EXPECT_EQ(c.timeouts(), 1u);
}

// ---------------------------------------------------------------------------
// Snitch-class ranking: hedge/retry backup legs prefer same-rack over
// same-DC over cross-DC among the untried alive replicas.
// ---------------------------------------------------------------------------

struct RankedHedgeRun {
  SimTime done_at = -1;
  ReadResult result;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
};

/// 2 DCs x 2 racks of 2, rf 3+3, uniform-shuffle snitch, jitter-free latency
/// tiers (same-rack 0.1ms << same-DC 8ms << cross-DC 80ms). All three dc0
/// replicas of the key start dead, which forces the CL=ONE read to (a)
/// coordinate on the single live dc0 node — the one non-replica — and (b)
/// send its data leg to a slow cross-DC dc1 replica. A scheduled revival
/// lands after the original leg went out but before the hedge timer fires,
/// so next_untried_replica faces candidates of several link classes at once;
/// which class it picked is read off the completion time (the hedge response
/// beats the ~168ms cross-DC original by construction).
RankedHedgeRun run_ranked_hedge(bool revive_same_rack) {
  sim::Simulation sim(77);
  ClusterConfig cfg;
  cfg.dc_count = 2;
  cfg.node_count = 8;  // 4 per DC, 2 racks of 2
  cfg.rf = 6;          // NTS split: 3 replicas in each DC
  cfg.closest_first_snitch = false;  // ordering must come from the ranking
  cfg.resilience.hedge_reads = true;
  cfg.resilience.hedge_fallback_delay = msec(1);
  cfg.latency.same_rack = {usec(100), 0.0};
  cfg.latency.same_dc = {msec(8), 0.0};
  cfg.latency.cross_dc = {msec(80), 0.0};
  Cluster c(sim, cfg);
  c.preload_range(32, 256);

  const cluster::Key key = 7;
  const net::Topology& topo = c.topology();
  std::vector<net::NodeId> dc0_replicas;
  for (const net::NodeId n : c.replicas_for(key)) {
    if (topo.dc_of(n) == 0) dc0_replicas.push_back(n);
  }
  EXPECT_EQ(dc0_replicas.size(), 3u);
  // The one dc0 node that is not a replica: the forced coordinator. Its
  // same-rack peer is always one of the three dc0 replicas.
  net::NodeId coord = 0;
  for (const net::NodeId n : topo.nodes_in_dc(0)) {
    if (std::find(dc0_replicas.begin(), dc0_replicas.end(), n) ==
        dc0_replicas.end()) {
      coord = n;
    }
  }
  for (const net::NodeId n : dc0_replicas) c.kill_node(n);

  // The client hop is a same-DC leg (8ms) and the hedge fires 1ms after the
  // coordinator started the read: revive at 8.5ms, squarely between them.
  sim.schedule_at(8500, [&c, &topo, &dc0_replicas, coord, revive_same_rack] {
    for (const net::NodeId n : dc0_replicas) {
      if (!revive_same_rack && topo.same_rack(coord, n)) continue;
      c.revive_node(n);
    }
  });

  RankedHedgeRun out;
  c.client_read(0, key, cluster::resolve_count(1, cfg.rf),
                [&out, &sim](const ReadResult& r) {
                  out.result = r;
                  out.done_at = sim.now();
                });
  sim.run();
  out.hedges = c.hedges_fired();
  out.hedge_wins = c.hedge_wins();
  return out;
}

TEST(Hedging, BackupLegPrefersSameRackThenSameDcThenCrossDc) {
  // All three dc0 replicas revive: the same-rack peer must win the hedge,
  // and its ~0.2ms round trip completes the read at roughly client hop (8) +
  // hedge delay (1) + response hop (8) ≈ 17ms. A same-DC pick would land
  // near 33ms, a cross-DC pick near 177ms.
  const RankedHedgeRun rack = run_ranked_hedge(/*revive_same_rack=*/true);
  EXPECT_TRUE(rack.result.ok);
  EXPECT_EQ(rack.hedges, 1u);
  EXPECT_EQ(rack.hedge_wins, 1u);
  EXPECT_LT(rack.done_at, msec(25));

  // The same-rack peer stays dead: the ranking must fall back to a same-DC
  // candidate (~33ms completion), never the untried cross-DC replicas
  // (~177ms, indistinguishable from the original leg's ~176ms).
  const RankedHedgeRun dc = run_ranked_hedge(/*revive_same_rack=*/false);
  EXPECT_TRUE(dc.result.ok);
  EXPECT_EQ(dc.hedges, 1u);
  EXPECT_EQ(dc.hedge_wins, 1u);
  EXPECT_GT(dc.done_at, msec(25));
  EXPECT_LT(dc.done_at, msec(80));
}

TEST(Faults, TimeoutFiresDuringDcBlackoutThenRestoreHeals) {
  sim::Simulation sim(23);
  ClusterConfig cfg;
  cfg.dc_count = 2;
  cfg.node_count = 6;
  cfg.rf = 4;  // NTS: 2 + 2
  cfg.request_timeout = 20 * kMillisecond;
  cfg.resilience.read_retries = 2;  // no untried host survives the blackout
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  // CL=ALL read needs both DCs; DC 1 goes dark after the fan-out is sent but
  // before its replicas serve, so their legs never respond and the timeout
  // fires mid-blackout with every snitch candidate dead.
  ReadResult first;
  first.ok = true;
  c.client_read(0, 5, cluster::resolve_count(4, cfg.rf),
                [&](const ReadResult& r) { first = r; });
  c.schedule_fault({usec(1200), FaultOp::kDcBlackout, 0, 1, 1.0});
  c.schedule_fault({40 * kMillisecond, FaultOp::kDcRestore, 0, 1, 1.0});

  bool saw_blackout = false;
  sim.schedule_at(30 * kMillisecond, [&] { saw_blackout = !c.dc_alive(1); });

  // After the restore the same requirement succeeds again.
  ReadResult second;
  sim.schedule_at(60 * kMillisecond, [&] {
    c.client_read(0, 5, cluster::resolve_count(4, cfg.rf),
                  [&](const ReadResult& r) { second = r; });
  });
  sim.run();

  EXPECT_TRUE(saw_blackout);
  EXPECT_TRUE(c.dc_alive(1));
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(c.timeouts(), 1u);
  EXPECT_EQ(c.retries(), 0u);  // every candidate was dead, never retried
  EXPECT_TRUE(second.ok);
}

// ===========================================================================
// Cluster-level: kill/revive churn racing hedges + retries, deterministically
// ===========================================================================

namespace {
struct StormResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t fingerprint = 0;
};

std::uint64_t mix(std::uint64_t fp, std::uint64_t v) {
  fp ^= v + 0x9E3779B97F4A7C15ULL + (fp << 6) + (fp >> 2);
  return fp;
}

/// A half-second of mixed traffic with every resilience knob on while nodes
/// die, revive, degrade, and a whole DC blacks out mid-flight. Exercises the
/// kill/revive-mid-hedge race: hedge timers fire against freshly dead
/// candidates, hedge legs outlive their target, retries race revivals.
StormResult run_fault_storm(std::uint64_t seed) {
  sim::Simulation sim(seed);
  ClusterConfig cfg;
  cfg.dc_count = 2;
  cfg.node_count = 8;
  cfg.rf = 3;
  cfg.request_timeout = 30 * kMillisecond;
  cfg.resilience.hedge_reads = true;
  cfg.resilience.hedge_quantile = 0.9;
  cfg.resilience.hedge_fallback_delay = usec(300);
  cfg.resilience.read_retries = 1;
  cfg.resilience.retry_backoff = msec(2);
  Cluster c(sim, cfg);
  c.preload_range(100, 256);

  c.schedule_fault({100 * kMillisecond, FaultOp::kDegradeNode, 1, 0, 25.0});
  c.schedule_fault({400 * kMillisecond, FaultOp::kRestoreNode, 1, 0, 1.0});
  c.schedule_fault({150 * kMillisecond, FaultOp::kKillNode, 2, 0, 1.0});
  c.schedule_fault({350 * kMillisecond, FaultOp::kReviveNode, 2, 0, 1.0});
  c.schedule_fault({250 * kMillisecond, FaultOp::kDcBlackout, 0, 1, 1.0});
  c.schedule_fault({330 * kMillisecond, FaultOp::kDcRestore, 0, 1, 1.0});
  c.schedule_fault({280 * kMillisecond, FaultOp::kDegradeWan, 0, 0, 3.0});
  c.schedule_fault({450 * kMillisecond, FaultOp::kRestoreWan, 0, 0, 1.0});

  StormResult out;
  Rng traffic(seed ^ 0x5707);
  for (int i = 0; i < 400; ++i) {
    const SimTime at = static_cast<SimTime>(traffic.uniform_u64(500 * kMillisecond));
    const cluster::Key key = traffic.uniform_u64(100);
    const auto dc = static_cast<net::DcId>(traffic.uniform_u64(2));
    const int k = 1 + static_cast<int>(traffic.uniform_u64(3));
    const bool is_write = traffic.chance(0.3);
    ++out.issued;
    sim.schedule_at(at, [&c, &out, key, dc, k, is_write] {
      if (is_write) {
        c.client_write(dc, key, 256, cluster::resolve_count(k, 3),
                       [&out](const WriteResult& w) {
                         ++out.completed;
                         out.fingerprint = mix(out.fingerprint, w.ok);
                       });
      } else {
        c.client_read(dc, key, cluster::resolve_count(k, 3),
                      [&out](const ReadResult& r) {
                        ++out.completed;
                        out.fingerprint =
                            mix(mix(out.fingerprint, r.ok), r.stale);
                      });
      }
    });
  }
  sim.run();

  out.fingerprint = mix(out.fingerprint, c.timeouts());
  out.fingerprint = mix(out.fingerprint, c.unavailable());
  out.fingerprint = mix(out.fingerprint, c.retries());
  out.fingerprint = mix(out.fingerprint, c.hedges_fired());
  out.fingerprint = mix(out.fingerprint, c.hedge_wins());
  out.fingerprint = mix(out.fingerprint, sim.events_processed());
  out.fingerprint = mix(out.fingerprint, c.net_stats().total_bytes());
  return out;
}
}  // namespace

TEST(Faults, KillReviveMidHedgeStormLosesNoRequestAndIsDeterministic) {
  const StormResult a = run_fault_storm(0xF417);
  // Zero lost requests: every client callback fired exactly once, whether
  // the request was served, timed out, or found its replicas unavailable.
  EXPECT_EQ(a.completed, a.issued);

  const StormResult b = run_fault_storm(0xF417);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "fault storm with all resilience knobs on must replay bit-identically";
  EXPECT_EQ(a.completed, b.completed);
}

// ===========================================================================
// Cluster-level: admission control
// ===========================================================================

TEST(Admission, ShedModeRejectsOverBurstWithRetryAfter) {
  sim::Simulation sim(31);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 3;
  cfg.rf = 2;
  cfg.resilience.admission_rate = 1.0;  // refill is negligible in-run
  cfg.resilience.admission_burst = 2.0;
  cfg.resilience.admission_mode = AdmissionMode::kShed;
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  std::vector<ReadResult> results;
  for (int i = 0; i < 6; ++i) {
    c.client_read(0, static_cast<cluster::Key>(i),
                  cluster::resolve_count(1, cfg.rf),
                  [&](const ReadResult& r) { results.push_back(r); });
  }
  sim.run();

  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(c.sheds(), 4u);  // bucket held exactly two tokens
  int oks = 0;
  for (const ReadResult& r : results) {
    if (r.shed) {
      EXPECT_FALSE(r.ok);
      EXPECT_GT(r.retry_after, 0);
    } else {
      EXPECT_TRUE(r.ok);
      ++oks;
    }
  }
  EXPECT_EQ(oks, 2);
  // Sheds are neither timeouts nor unavailability: the replicas could have
  // served, the coordinator chose not to ask them.
  EXPECT_EQ(c.timeouts(), 0u);
  EXPECT_EQ(c.unavailable(), 0u);
}

TEST(Admission, WritesShedThroughTheSameBucket) {
  sim::Simulation sim(32);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 3;
  cfg.rf = 2;
  cfg.resilience.admission_rate = 1.0;
  cfg.resilience.admission_burst = 1.0;
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  std::vector<WriteResult> results;
  for (int i = 0; i < 3; ++i) {
    c.client_write(0, static_cast<cluster::Key>(i), 256,
                   cluster::resolve_count(1, cfg.rf),
                   [&](const WriteResult& w) { results.push_back(w); });
  }
  sim.run();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(c.sheds(), 2u);
  int oks = 0, sheds = 0;
  for (const WriteResult& w : results) {
    if (w.shed) {
      EXPECT_FALSE(w.ok);
      EXPECT_GT(w.retry_after, 0);
      ++sheds;
    } else {
      EXPECT_TRUE(w.ok);
      ++oks;
    }
  }
  EXPECT_EQ(oks, 1);
  EXPECT_EQ(sheds, 2);
}

TEST(Admission, DelayModeQueuesABurstInsteadOfShedding) {
  sim::Simulation sim(33);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 3;
  cfg.rf = 2;
  cfg.resilience.admission_rate = 10'000.0;  // one token per 100us
  cfg.resilience.admission_burst = 1.0;
  cfg.resilience.admission_mode = AdmissionMode::kDelay;
  cfg.resilience.admission_max_delay = 50 * kMillisecond;
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  int done = 0, oks = 0;
  for (int i = 0; i < 5; ++i) {
    c.client_read(0, static_cast<cluster::Key>(i),
                  cluster::resolve_count(1, cfg.rf),
                  [&](const ReadResult& r) {
                    ++done;
                    oks += r.ok;
                  });
  }
  sim.run();

  // The burst pre-pays the bucket into deficit and drains at the token rate:
  // everyone is eventually served, nobody is shed.
  EXPECT_EQ(done, 5);
  EXPECT_EQ(oks, 5);
  EXPECT_EQ(c.sheds(), 0u);
}

TEST(Admission, DelayModeShedsPastTheWaitCap) {
  sim::Simulation sim(34);
  ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 3;
  cfg.rf = 2;
  cfg.resilience.admission_rate = 10.0;  // one token per 100ms
  cfg.resilience.admission_burst = 1.0;
  cfg.resilience.admission_mode = AdmissionMode::kDelay;
  cfg.resilience.admission_max_delay = msec(5);  // far below the token gap
  Cluster c(sim, cfg);
  c.preload_range(16, 256);

  int done = 0;
  for (int i = 0; i < 3; ++i) {
    c.client_read(0, static_cast<cluster::Key>(i),
                  cluster::resolve_count(1, cfg.rf),
                  [&](const ReadResult&) { ++done; });
  }
  sim.run();

  EXPECT_EQ(done, 3);
  EXPECT_EQ(c.sheds(), 2u);  // waits of ~100ms+ exceed the 5ms cap
}

// ===========================================================================
// Cluster-level: steady state stays allocation-free with every knob on
// ===========================================================================

namespace alloc_knobs {
struct Driver {
  Cluster* cluster = nullptr;
  Rng rng{3};
  ZipfianKeys zipf{400};
  cluster::ReplicaRequirement req{};
  std::uint64_t done = 0;
  bool reissue = true;

  void issue() {
    const cluster::Key key = zipf.next(rng);
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
}  // namespace alloc_knobs

TEST(ResilienceAllocation, SteadyStateIsAllocationFreeWithKnobsOn) {
  sim::Simulation sim(1);
  ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 3;
  // Every knob on: hedge timers and RTT sampling, retry budget, admission
  // bucket arithmetic on every request (rate high enough to never shed, so
  // the measured phase exercises the admit fast path).
  cfg.resilience.hedge_reads = true;
  cfg.resilience.hedge_fallback_delay = msec(1);
  cfg.resilience.read_retries = 2;
  cfg.resilience.retry_backoff = msec(1);
  cfg.resilience.admission_rate = 5e6;
  cfg.resilience.admission_burst = 1e6;
  Cluster c(sim, cfg);
  c.preload_range(400, 512);

  alloc_knobs::Driver d{&c};
  d.req = cluster::resolve_count(2, 3);

  constexpr int kWarmInflight = 64;
  constexpr int kInflight = 32;
  for (int i = 0; i < kWarmInflight; ++i) d.issue();
  sim.run_until(sim.now() + 600 * kMillisecond);
  d.reissue = false;
  sim.run();
  ASSERT_GT(d.done, 1000u) << "warm-up did not actually run traffic";

  const harmony::testing::AllocGuard guard;
  const std::uint64_t before = d.done;
  d.reissue = true;
  for (int i = 0; i < kInflight; ++i) d.issue();
  sim.run_until(sim.now() + 200 * kMillisecond);
  d.reissue = false;
  sim.run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "resilience knobs allocated on the steady-state request path";
  EXPECT_GT(d.done - before, 500u);
  EXPECT_GT(c.hedges_fired(), 0u) << "hedging never engaged; test is vacuous";
}

// ===========================================================================
// Workload-level: SLA accounting and DC failover through run_experiment
// ===========================================================================

namespace {
workload::RunConfig tight_timeout_config(std::uint64_t seed) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 5;
  // Default WAN tier (8ms one-way): below one cross-DC round trip, any
  // quorum read that needs a remote leg blows the 12ms attempt deadline and
  // the late ack lands just after.
  cfg.cluster.request_timeout = 12 * kMillisecond;
  cfg.workload = workload::WorkloadSpec::ycsb_b();
  cfg.workload.op_count = 6000;
  cfg.workload.record_count = 300;
  cfg.workload.clients_per_dc = 4;
  cfg.warmup = 100 * kMillisecond;
  cfg.seed = seed;
  cfg.policy = core::static_level(cluster::Level::kQuorum);
  return cfg;
}
}  // namespace

TEST(RunnerResilience, RetriesRescueTimeoutsWithoutDoubleCounting) {
  auto base_cfg = tight_timeout_config(41);
  const auto base = workload::run_experiment(base_cfg);
  ASSERT_GT(base.timeouts, 100u)
      << "baseline produced too few timeouts to measure a rescue effect";
  EXPECT_EQ(base.retries, 0u);

  auto retry_cfg = tight_timeout_config(41);
  retry_cfg.cluster.resilience.read_retries = 2;
  retry_cfg.cluster.resilience.retry_backoff = msec(10);
  const auto retried = workload::run_experiment(retry_cfg);

  // Rescued requests surface as `retries`, not `timeouts`: the distinct
  // counters must not double-report the same request.
  EXPECT_GT(retried.retries, 0u);
  EXPECT_LT(retried.timeouts, base.timeouts / 2)
      << "base=" << base.timeouts << " retried=" << retried.timeouts;
  EXPECT_LT(retried.errors, base.errors);
}

TEST(RunnerResilience, DcFailoverLosesNoClientRequest) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 4;  // NTS: 2 + 2
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.request_timeout = 100 * kMillisecond;
  cfg.cluster.resilience.read_retries = 1;  // in-flight reads re-aim at DC 0
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.op_count = 8000;
  cfg.workload.record_count = 300;
  cfg.workload.clients_per_dc = 6;
  cfg.workload.reroute_on_dc_outage = true;
  cfg.warmup = 0;  // measure everything so the books must balance exactly
  cfg.seed = 42;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.fault_schedule.push_back({300 * kMillisecond, FaultOp::kDcBlackout, 0, 1, 1.0});
  cfg.fault_schedule.push_back({700 * kMillisecond, FaultOp::kDcRestore, 0, 1, 1.0});

  const auto r = workload::run_experiment(cfg);

  // Zero lost client requests: every issued operation came back served,
  // shed, or failed — the closed loop drained and the ledger balances.
  EXPECT_EQ(r.reads + r.writes, cfg.workload.op_count);
  // DC-1 clients actually crossed over during the blackout window.
  EXPECT_GT(r.rerouted_ops, 0u);
  // At CL=ONE with two surviving replicas per key, failover keeps the error
  // rate to the in-flight casualties of the blackout instant.
  EXPECT_LT(r.errors, cfg.workload.op_count / 50) << r.summary();
}

TEST(RunnerResilience, AdmissionShedsSurfaceInRunResult) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  // Well below the closed-loop demand of 8 unthrottled clients per DC.
  cfg.cluster.resilience.admission_rate = 3000;
  cfg.cluster.resilience.admission_burst = 50;
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.op_count = 6000;
  cfg.workload.record_count = 300;
  cfg.workload.clients_per_dc = 8;
  cfg.warmup = 0;
  cfg.seed = 43;
  cfg.policy = core::static_level(cluster::Level::kOne);

  const auto r = workload::run_experiment(cfg);

  EXPECT_GT(r.sheds, 0u);
  EXPECT_GT(r.client_shed_retries, 0u);
  // Shed re-issues are the same logical op: completion accounting still
  // balances exactly against the issued op count.
  EXPECT_EQ(r.reads + r.writes, cfg.workload.op_count);
}

TEST(RunnerResilience, EveryKnobOnIsDeterministicEndToEnd) {
  auto make = [] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 10;
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 3;
    cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.cluster.request_timeout = 40 * kMillisecond;
    cfg.cluster.resilience.hedge_reads = true;
    cfg.cluster.resilience.hedge_quantile = 0.9;
    cfg.cluster.resilience.read_retries = 1;
    cfg.cluster.resilience.retry_backoff = msec(5);
    cfg.cluster.resilience.admission_rate = 8000;
    cfg.cluster.resilience.admission_burst = 100;
    cfg.cluster.resilience.admission_mode = AdmissionMode::kDelay;
    cfg.workload = workload::WorkloadSpec::ycsb_a();
    cfg.workload.op_count = 5000;
    cfg.workload.record_count = 300;
    cfg.workload.clients_per_dc = 4;
    cfg.workload.reroute_on_dc_outage = true;
    cfg.warmup = 100 * kMillisecond;
    cfg.seed = 44;
    cfg.policy = core::harmony_policy(0.2);
    cfg.fault_schedule.push_back(
        {200 * kMillisecond, FaultOp::kDegradeNode, 3, 0, 20.0});
    cfg.fault_schedule.push_back(
        {500 * kMillisecond, FaultOp::kRestoreNode, 3, 0, 1.0});
    cfg.fault_schedule.push_back(
        {600 * kMillisecond, FaultOp::kDcBlackout, 0, 1, 1.0});
    cfg.fault_schedule.push_back(
        {800 * kMillisecond, FaultOp::kDcRestore, 0, 1, 1.0});
    return cfg;
  };

  const auto a = workload::run_experiment(make());
  const auto b = workload::run_experiment(make());
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges_fired, b.hedges_fired);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.client_shed_retries, b.client_shed_retries);
  EXPECT_EQ(a.rerouted_ops, b.rerouted_ops);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  // The scenario actually engaged the machinery it claims to pin down.
  EXPECT_GT(a.hedges_fired, 0u);
  EXPECT_GT(a.rerouted_ops, 0u);
}

}  // namespace
}  // namespace harmony
