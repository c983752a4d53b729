// Component microbenchmarks (google-benchmark): the substrate operations the
// experiment harness leans on. These quantify simulator capacity — how many
// simulated operations per real second a bench binary can push.
#include <benchmark/benchmark.h>

#include <array>
#include <functional>
#include <iterator>
#include <limits>

#include "cluster/cluster.h"
#include "cluster/staleness_oracle.h"
#include "cluster/token_ring.h"
#include "common/distributions.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/stale_model.h"
#include "core/static_policy.h"
#include "ml/kmeans.h"
#include "net/latency_model.h"
#include "reference/reference_lognormal.h"
#include "sim/simulation.h"
#include "workload/runner.h"

namespace {

using namespace harmony;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

/// One latency draw, cycling through the four ec2_two_az tiers: the libm
/// formula (tests/reference/) against Rng::lognormal_median, which returns
/// the same integers.
void BM_LognormalDraw(benchmark::State& state, bool libm) {
  const auto p = net::TieredLatencyModel::ec2_two_az();
  const net::LatencyTier tiers[] = {p.loopback, p.same_rack, p.same_dc,
                                    p.cross_dc};
  Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const net::LatencyTier& t = tiers[i++ & 3];
    const auto median = static_cast<double>(t.base);
    benchmark::DoNotOptimize(
        libm ? testing::reference_lognormal_median(rng, median, t.sigma)
             : rng.lognormal_median(median, t.sigma));
  }
}
BENCHMARK_CAPTURE(BM_LognormalDraw, libm, true);
BENCHMARK_CAPTURE(BM_LognormalDraw, table, false);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ZipfianKeys zipf(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfianNext)->Arg(1000)->Arg(1'000'000);

void BM_ScrambledZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ScrambledZipfianKeys zipf(1'000'000);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ScrambledZipfianNext);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(1);
  for (auto _ : state) h.record(static_cast<SimDuration>(rng.exponential(2000)));
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_RingLookup(benchmark::State& state) {
  // The per-key NTS ring walk: rf 3 split {2, 1} over two DCs, into an
  // inline list. Cluster runs this walk once per arc at construction to
  // build its placement table; no request pays it.
  const auto topo = net::Topology::balanced(84, 2);
  cluster::TokenRing ring(topo, static_cast<int>(state.range(0)), 42);
  Rng rng(1);
  const cluster::DcCounts rf_per_dc{2, 1};
  cluster::ReplicaList out;
  for (auto _ : state) {
    ring.replicas_nts(rng.next(), rf_per_dc, out);
    benchmark::DoNotOptimize(out.begin());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RingLookup)->Arg(8)->Arg(64)->Arg(256);

void BM_PlacementLookup(benchmark::State& state) {
  // What the request path pays for placement (Cluster::replicas_for): key ->
  // token -> arc_of -> the arc's entry of a per-arc table, copied into an
  // inline list — on BM_RingLookup's ring and rf split.
  const auto topo = net::Topology::balanced(84, 2);
  cluster::TokenRing ring(topo, static_cast<int>(state.range(0)), 42);
  const cluster::DcCounts rf_per_dc{2, 1};
  std::vector<cluster::ReplicaList> table(ring.vnode_count());
  for (std::size_t a = 0; a < table.size(); ++a) {
    ring.replicas_at(a, rf_per_dc, table[a]);
  }
  Rng rng(1);
  cluster::ReplicaList out;
  for (auto _ : state) {
    out = table[ring.arc_of(cluster::TokenRing::token_for(rng.next()))];
    benchmark::DoNotOptimize(out.begin());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlacementLookup)->Arg(8)->Arg(64)->Arg(256);

// The three BM_EventQueue* rows time the closure lane: cancellable timeouts
// and timers, a small share of a run's events. BM_TypedLane times the lane
// that carries the rest.
void BM_EventQueue(benchmark::State& state) {
  // Closure lane, cold: a fresh Simulation (and queue) per 1,000 events.
  for (auto _ : state) {
    sim::Simulation sim(1);
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i % 97, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Closure lane, warm: slab and heap grown once, then the schedule+pop
  // cycle of a closure event (zero allocations in steady state).
  sim::Simulation sim(1);
  std::uint64_t ticks = 0;
  for (int i = 0; i < 4096; ++i) sim.schedule(i % 101, [&ticks] { ++ticks; });
  sim.run();
  std::int64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i % 97, [&ticks] { ++ticks; });
    }
    sim.run();
    events += 1000;
  }
  benchmark::DoNotOptimize(ticks);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueSteadyState);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Closure lane, schedule-then-cancel half the events: eager removal and
  // slot/generation recycling under heavy cancellation (timeout-style load).
  sim::Simulation sim(1);
  std::vector<sim::EventHandle> handles;
  handles.reserve(1000);
  std::int64_t events = 0;
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule(1 + i % 97, [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim.run();
    events += 1000;
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_TypedLane(benchmark::State& state) {
  // The typed lane: pop the head and push it back with a new delay, so
  // range(0) events stay in flight (a full run's mean typed queue size is
  // ~50 on openloop_2m, ~210 on harmony_ec2 and ~690 on
  // write_storm_faults). Delays cycle through a fixed table shaped like a
  // run's typed-push delay histogram: 10% zero-delay, 5% past the timing
  // wheel's 2^14 µs span (the far tier), the rest 1 µs to 11 ms.
  static constexpr SimDuration kDelays[] = {
      0,   0,   1,   3,     12,    40,    90,    150,   250,    400,
      600, 800, 1100, 1500, 2000, 3000, 4500, 7000, 11000, 60000};
  constexpr std::size_t kTable = std::size(kDelays);
  constexpr std::size_t kStep = 7;  // coprime with kTable: visits every entry
  constexpr int kBatch = 1024;
  sim::EventQueue q;
  std::size_t cursor = 0;
  SimTime now = 0;
  sim::TypedEvent ev;
  ev.kind = sim::EventKind::kUserProbe;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    q.push_typed_stamped(kDelays[cursor], q.alloc_seq(), ev);
    cursor = (cursor + kStep) % kTable;
  }
  const auto on_event = [&now](SimTime when, std::uint64_t) { now = when; };
  const auto reschedule = [&](const sim::TypedEvent& e) {
    q.push_typed_stamped(now + kDelays[cursor], q.alloc_seq(), e);
    cursor = (cursor + kStep) % kTable;
  };
  constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::max();
  // Warm-up: node and far-tier growth, and a steady mix of delays.
  for (int i = 0; i < 64 * kBatch; ++i) {
    q.run_before(kNoHorizon, on_event, reschedule);
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      q.run_before(kNoHorizon, on_event, reschedule);
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TypedLane)->Arg(64)->Arg(256)->Arg(1024);

void BM_OracleCommitJudge(benchmark::State& state) {
  // The staleness oracle under the request path's call pattern, through its
  // public API: per iteration one commit, then the oldest of 64 in-flight
  // reads is judged and ended and a new read begins, so each read stays open
  // across the next 64 commits. Keys are zipfian over range(0) keys, all
  // written once before timing, so the key table has its final size.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kWindow = 64;
  cluster::StalenessOracle oracle;
  Rng rng(1);
  ZipfianKeys zipf(n);
  std::uint64_t seq = 0;
  SimTime now = 0;
  for (cluster::Key k = 0; k < n; ++k) oracle.record_commit(k, {0, ++seq}, 0);
  struct Read {
    SimTime start;
    cluster::Key key;
  };
  std::array<Read, kWindow> window{};
  for (Read& r : window) {
    oracle.begin_read(++now);
    r = {now, zipf.next(rng)};
  }
  std::size_t oldest = 0;
  for (auto _ : state) {
    ++now;
    // Timestamps lag the commit instant by 0-3 µs, as concurrent writes do.
    oracle.record_commit(zipf.next(rng),
                         {now - static_cast<SimTime>(seq & 3), ++seq}, now);
    Read& r = window[oldest];
    benchmark::DoNotOptimize(oracle.judge(r.key, {r.start - 8, 0}, r.start));
    oracle.end_read(r.start);
    oracle.begin_read(now);
    r = {now, zipf.next(rng)};
    oldest = (oldest + 1) % kWindow;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleCommitJudge)->Arg(1000)->Arg(100'000);

void BM_StaleModelEval(benchmark::State& state) {
  core::StaleModelParams params;
  params.lambda_w = 500;
  params.prop_delays_us = {300, 700, 1100, 9000, 11000};
  const core::StaleReadModel model(params);
  for (auto _ : state) {
    for (int k = 1; k <= 4; ++k) benchmark::DoNotOptimize(model.p_stale(k));
  }
}
BENCHMARK(BM_StaleModelEval);

void BM_KMeansFit(benchmark::State& state) {
  Rng rng(7);
  ml::FeatureMatrix x;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.normal(i % 3 * 10.0, 1.0), rng.normal(i % 3 * -5.0, 1.0)});
  }
  ml::KMeansOptions opt;
  opt.k = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(x, opt).inertia);
  }
}
BENCHMARK(BM_KMeansFit);

void BM_ClusterThroughput(benchmark::State& state) {
  // End-to-end simulated client ops per wall-clock second at a fixed
  // consistency level: a closed loop of 64 in-flight clients issuing a 70/30
  // read/write zipfian mix against a 10-node, 2-DC, rf=3 cluster. This is the
  // headline "simulator capacity" number — everything the experiment harness
  // does sits on this path. range(0) is the replica count both reads and
  // writes wait for (1 = ONE, 2 = QUORUM of rf 3).
  const int level = static_cast<int>(state.range(0));
  sim::Simulation sim(1);
  cluster::ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 3;
  cluster::Cluster c(sim, cfg);
  c.preload_range(10'000, 1024);
  Rng rng(3);
  ZipfianKeys zipf(10'000);
  std::uint64_t done = 0;
  const auto req = cluster::resolve_count(level, 3);
  constexpr int kInflight = 64;

  std::function<void()> issue = [&] {
    const cluster::Key key = zipf.next(rng);
    const net::DcId dc = static_cast<net::DcId>(rng.uniform_u64(2));
    if (rng.chance(0.3)) {
      c.client_write(dc, key, 1024, req, [&](const cluster::WriteResult&) {
        ++done;
        issue();
      });
    } else {
      c.client_read(dc, key, req, [&](const cluster::ReadResult&) {
        ++done;
        issue();
      });
    }
  };

  for (auto _ : state) {
    const std::uint64_t start_ops = done;
    for (int i = 0; i < kInflight; ++i) issue();
    // Run the closed loop for a fixed slice of simulated time, then let the
    // remaining requests drain without reissuing.
    sim.run_until(sim.now() + 50 * kMillisecond);
    auto drain = std::move(issue);
    issue = [] {};
    sim.run();
    issue = std::move(drain);
    benchmark::DoNotOptimize(done - start_ops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  state.SetLabel(level == 1 ? "CL=ONE" : "CL=QUORUM");
}
BENCHMARK(BM_ClusterThroughput)->Arg(1)->Arg(2);

void BM_ClusterOps(benchmark::State& state) {
  // End-to-end simulated read+write pair throughput of the cluster substrate
  // (how many simulated ops one real second of benching covers).
  sim::Simulation sim(1);
  cluster::ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 3;
  cluster::Cluster c(sim, cfg);
  c.preload_range(1000, 1024);
  Rng rng(3);
  std::uint64_t done = 0;
  for (auto _ : state) {
    const cluster::Key key = rng.uniform_u64(1000);
    c.client_write(0, key, 1024, cluster::resolve_count(1, 3),
                   [&](const cluster::WriteResult&) { ++done; });
    c.client_read(1, key, cluster::resolve_count(1, 3),
                  [&](const cluster::ReadResult&) { ++done; });
    sim.run();
  }
  benchmark::DoNotOptimize(done);
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ClusterOps);

void BM_KeyRangeShardedThroughput(benchmark::State& state) {
  // Single-run parallelism: one *single-DC* EC2-style experiment whose
  // token space splits into range(0) key-range shards (the one sharded
  // shape; see RunConfig::shards_per_dc), each driven by its own worker
  // thread and synchronized on the intra-DC propagation floor. Every arg
  // simulates the same workload semantics and S >= 2 configs reproduce each
  // other's merged order bit for bit; shards=1 is the unsharded reference
  // the speedup is measured against. The >= 2x target at 4 shards/4 threads
  // is only observable on a machine with >= 4 physical cores — the
  // committed baseline's machine context (num_cpus) says what it was
  // measured on.
  const auto shards = static_cast<unsigned>(state.range(0));
  workload::RunConfig cfg;
  cfg.label = "key-range-bench";
  cfg.cluster.node_count = 16;
  cfg.cluster.dc_count = 1;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.latency.cross_dc = {msec(2), 0.3, msec(1)};
  // Intra-DC legs cross shards under key-range sharding, so the intra-DC
  // floors carry the conservative lookahead.
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.op_count = 250'000;  // ~10^5 windows per iteration
  cfg.workload.record_count = 10'000;
  cfg.workload.clients_per_dc = 32;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 100 * kMillisecond;
  cfg.num_shard_threads = shards == 1 ? 0 : shards;  // one thread per shard
  cfg.shards_per_dc = shards;
  cfg.seed = 7;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = workload::run_experiment(cfg);
    events += r.sim_events;
    benchmark::DoNotOptimize(r.throughput);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(cfg.workload.op_count * state.iterations()));
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.SetLabel(shards == 1
                     ? "serial 1-dc"
                     : "key-range shards=" + std::to_string(shards) +
                           " threads=" + std::to_string(shards));
}
BENCHMARK(BM_KeyRangeShardedThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
