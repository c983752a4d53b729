// Open-loop traffic engine tests (workload/open_loop.h).
//
// Three contracts, each of which the closed-loop harness cannot express:
//   1. Measurement — latency is recorded from *intended* arrival time, so
//      saturation shows up as queueing delay instead of silently shrinking
//      the offered load (the coordinated-omission fix, asserted both for the
//      open-loop engine and for the rate-paced closed-loop Client).
//   2. Accounting — overload is explicit: every intended arrival ends the
//      run as completed, shed, still-queued, or still-in-flight, and the
//      ledger conserves exactly.
//   3. Determinism and cost — byte-identical results for any shard-thread
//      count and rerun, and a steady state that never touches the heap.
#include "workload/open_loop.h"

#include <gtest/gtest.h>

#include <memory>

#include "alloc_guard.h"
#include "core/static_policy.h"
#include "workload/runner.h"

namespace harmony::workload {
namespace {

RunConfig open_run(double rate_per_s, std::uint64_t seed = 11) {
  RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = WorkloadSpec::ycsb_a();
  cfg.workload.record_count = 500;
  cfg.workload.open_loop.enabled = true;
  cfg.workload.open_loop.rate_per_s = rate_per_s;
  cfg.workload.open_loop.duration = 3 * kSecond;
  cfg.workload.open_loop.drain_grace = kSecond;
  cfg.workload.open_loop.user_count = 20'000;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 500 * kMillisecond;
  cfg.seed = seed;
  return cfg;
}

/// The conservation identities every run must satisfy exactly: arrivals are
/// never lost, only re-labelled.
void expect_ledger_conserved(const OpenLoopResult& ol) {
  EXPECT_EQ(ol.arrivals, ol.completed + ol.shed_queue_full + ol.queued_at_end +
                             ol.in_flight_at_end);
  EXPECT_EQ(ol.issued, ol.completed + ol.in_flight_at_end);
  EXPECT_GE(ol.completed, ol.failed);
  EXPECT_GE(ol.failed, ol.shed_admission);
  EXPECT_GE(ol.sla_total, ol.sla_ok);
}

TEST(OpenLoop, RunsAndPopulatesResult) {
  const auto r = run_experiment(open_run(1500));
  EXPECT_GT(r.reads, 500u);
  EXPECT_GT(r.writes, 500u);
  EXPECT_GT(r.read_latency.count(), 0u);
  EXPECT_GT(r.write_latency.count(), 0u);
  expect_ledger_conserved(r.open_loop);
  EXPECT_GT(r.open_loop.arrivals, 0u);
  EXPECT_GT(r.open_loop.sla_total, 0u);
  EXPECT_GT(r.open_loop.sla_attainment, 0.0);
  EXPECT_LE(r.open_loop.sla_attainment, 1.0);
  // A Poisson process at constant lambda realises close to its nominal rate.
  EXPECT_NEAR(r.open_loop.offered_rate, 1500.0, 1500.0 * 0.15);
}

TEST(OpenLoop, LedgerConservesUnderOverload) {
  auto cfg = open_run(40'000);
  // Tight explicit bounds so the run exercises queueing AND shedding.
  cfg.workload.open_loop.max_in_flight_per_dc = 64;
  cfg.workload.open_loop.queue_capacity_per_dc = 128;
  const auto r = run_experiment(cfg);
  const OpenLoopResult& ol = r.open_loop;
  expect_ledger_conserved(ol);
  EXPECT_GT(ol.shed_queue_full, 0u) << "overload never hit the bounded FIFO";
  EXPECT_GT(ol.queueing_delay.count(), 0u);
  EXPECT_GT(ol.queueing_delay.max(), 0);
  // Offered load is independent of completions: arrivals track the nominal
  // rate even though the cluster cannot absorb them.
  EXPECT_NEAR(ol.offered_rate, 40'000.0, 40'000.0 * 0.15);
  EXPECT_LT(ol.sla_attainment, 0.9);
}

TEST(OpenLoop, DeterministicAcrossReruns) {
  const auto a = run_experiment(open_run(5000, 17));
  const auto b = run_experiment(open_run(5000, 17));
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.open_loop.arrivals, b.open_loop.arrivals);
  EXPECT_EQ(a.open_loop.completed, b.open_loop.completed);
  EXPECT_EQ(a.open_loop.shed_queue_full, b.open_loop.shed_queue_full);
  EXPECT_EQ(a.read_latency.percentile(99), b.read_latency.percentile(99));
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(OpenLoop, SeedChangesOutcome) {
  const auto a = run_experiment(open_run(5000, 17));
  const auto b = run_experiment(open_run(5000, 18));
  EXPECT_NE(a.open_loop.arrivals, b.open_loop.arrivals);
}

// ---- sharded execution ------------------------------------------------------

/// One DC cut into three key-range shards, one open-loop source each.
RunConfig sharded_open_run(unsigned threads, double rate = 6000) {
  RunConfig cfg = open_run(rate, 29);
  cfg.cluster.node_count = 9;
  cfg.cluster.dc_count = 1;
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.num_shard_threads = threads;
  cfg.shards_per_dc = 3;
  return cfg;
}

void expect_same_open_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes());
  EXPECT_EQ(a.read_latency.count(), b.read_latency.count());
  EXPECT_EQ(a.read_latency.percentile(99), b.read_latency.percentile(99));
  EXPECT_EQ(a.write_latency.percentile(99), b.write_latency.percentile(99));
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.open_loop.arrivals, b.open_loop.arrivals);
  EXPECT_EQ(a.open_loop.issued, b.open_loop.issued);
  EXPECT_EQ(a.open_loop.completed, b.open_loop.completed);
  EXPECT_EQ(a.open_loop.failed, b.open_loop.failed);
  EXPECT_EQ(a.open_loop.shed_queue_full, b.open_loop.shed_queue_full);
  EXPECT_EQ(a.open_loop.queued_at_end, b.open_loop.queued_at_end);
  EXPECT_EQ(a.open_loop.in_flight_at_end, b.open_loop.in_flight_at_end);
  EXPECT_EQ(a.open_loop.sla_ok, b.open_loop.sla_ok);
  EXPECT_EQ(a.open_loop.sla_total, b.open_loop.sla_total);
  EXPECT_EQ(a.open_loop.queueing_delay.count(),
            b.open_loop.queueing_delay.count());
  EXPECT_EQ(a.open_loop.queueing_delay.percentile(99),
            b.open_loop.queueing_delay.percentile(99));
}

TEST(OpenLoop, ShardedRunIsThreadCountInvariant) {
  const auto serial = run_experiment(sharded_open_run(1));
  const auto two = run_experiment(sharded_open_run(2));
  const auto four = run_experiment(sharded_open_run(4));
  EXPECT_GT(serial.reads, 1000u);
  expect_ledger_conserved(serial.open_loop);
  expect_same_open_run(serial, two);
  expect_same_open_run(serial, four);
}

TEST(OpenLoop, ShardedOverloadIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = sharded_open_run(threads, 50'000);
    cfg.workload.open_loop.max_in_flight_per_dc = 64;
    cfg.workload.open_loop.queue_capacity_per_dc = 128;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  EXPECT_GT(serial.open_loop.shed_queue_full, 0u);
  expect_ledger_conserved(serial.open_loop);
  expect_same_open_run(serial, four);
}

// ---- arrival processes and rate curves -------------------------------------

TEST(OpenLoop, EveryProcessAndCurveRuns) {
  for (const auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kSelfSimilar}) {
    for (const auto curve : {RateCurve::kConstant, RateCurve::kDiurnal,
                             RateCurve::kFlashCrowd}) {
      auto cfg = open_run(2000);
      cfg.workload.open_loop.process = process;
      cfg.workload.open_loop.curve = curve;
      cfg.workload.open_loop.flash_at = 1500 * kMillisecond;
      cfg.workload.open_loop.flash_ramp = 300 * kMillisecond;
      cfg.workload.open_loop.flash_hold = 700 * kMillisecond;
      cfg.workload.open_loop.diurnal_period = 2 * kSecond;
      const auto r = run_experiment(cfg);
      SCOPED_TRACE(to_string(process) + "/" + to_string(curve));
      EXPECT_GT(r.open_loop.arrivals, 0u);
      EXPECT_GT(r.open_loop.completed, 0u);
      expect_ledger_conserved(r.open_loop);
    }
  }
}

TEST(OpenLoop, FlashCrowdRaisesOfferedLoad) {
  auto base = open_run(1000, 23);
  auto flash = open_run(1000, 23);
  flash.workload.open_loop.curve = RateCurve::kFlashCrowd;
  flash.workload.open_loop.flash_at = 1500 * kMillisecond;
  flash.workload.open_loop.flash_ramp = 300 * kMillisecond;
  flash.workload.open_loop.flash_hold = kSecond;
  const auto a = run_experiment(base);
  const auto b = run_experiment(flash);
  // The flash window injects ~7*rate*hold extra arrivals (an 8x plateau) on
  // top of the base process.
  EXPECT_GT(static_cast<double>(b.open_loop.arrivals),
            1.4 * static_cast<double>(a.open_loop.arrivals));
}

TEST(OpenLoop, SelfSimilarGapsAreBurstier) {
  auto poisson = open_run(4000, 31);
  auto pareto = open_run(4000, 31);
  pareto.workload.open_loop.process = ArrivalProcess::kSelfSimilar;
  pareto.workload.open_loop.pareto_alpha = 1.2;
  // Identical bounded client: a burstier arrival process pushes more
  // arrivals into the same FIFO at once, so its queueing tail dominates.
  poisson.workload.open_loop.max_in_flight_per_dc = 16;
  poisson.workload.open_loop.queue_capacity_per_dc = 4096;
  pareto.workload.open_loop.max_in_flight_per_dc = 16;
  pareto.workload.open_loop.queue_capacity_per_dc = 4096;
  const auto p = run_experiment(poisson);
  const auto s = run_experiment(pareto);
  expect_ledger_conserved(s.open_loop);
  EXPECT_GT(s.open_loop.queueing_delay.percentile(99),
            p.open_loop.queueing_delay.percentile(99));
}

// ---- coordinated omission ---------------------------------------------------

TEST(OpenLoop, P99DivergesFromClosedLoopAtSaturation) {
  // Closed loop first: its throughput IS the cluster's absorbable rate, and
  // its latency stays near service time no matter how overloaded the clients
  // "wish" to be — that is the coordinated-omission blind spot.
  RunConfig closed;
  closed.cluster.node_count = 8;
  closed.cluster.dc_count = 2;
  closed.cluster.rf = 3;
  closed.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  closed.workload = WorkloadSpec::ycsb_a();
  closed.workload.op_count = 8000;
  closed.workload.record_count = 500;
  closed.workload.clients_per_dc = 8;
  closed.policy = core::static_level(cluster::Level::kOne);
  closed.warmup = 500 * kMillisecond;
  closed.seed = 11;
  const auto c = run_experiment(closed);
  ASSERT_GT(c.throughput, 0.0);

  // Same cluster, open loop offering 2.5x what the closed loop delivered:
  // the intended-arrival clock exposes the queueing the closed loop hid.
  const auto o = run_experiment(open_run(2.5 * c.throughput));
  expect_ledger_conserved(o.open_loop);
  EXPECT_GT(o.read_latency.percentile(99), 5 * c.read_latency.percentile(99))
      << "open-loop p99 " << o.read_latency.summary() << " vs closed "
      << c.read_latency.summary();
}

TEST(CoordinatedOmission, PacedClientMeasuresFromIntendedArrival) {
  // Regression for the rate-capped closed-loop Client: with a saturating
  // per-client target rate the intended arrival grid runs far ahead of the
  // serialized completion loop. Before the fix latency was measured from the
  // post-backpressure issue time, so this run reported ~service-time p99s
  // (a few ms) and this test fails; measured from the intended arrival the
  // backlog is visible as seconds of latency.
  RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = WorkloadSpec::ycsb_a();
  cfg.workload.op_count = 4000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 2;
  cfg.workload.target_rate_per_client = 4000;  // far beyond one lane's pace
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 200 * kMillisecond;
  cfg.seed = 11;
  const auto paced = run_experiment(cfg);

  auto un = cfg;
  un.workload.target_rate_per_client = 0.0;
  const auto unthrottled = run_experiment(un);

  EXPECT_GT(paced.read_latency.percentile(99), 100 * kMillisecond)
      << paced.read_latency.summary();
  EXPECT_GT(paced.read_latency.percentile(99),
            20 * unthrottled.read_latency.percentile(99));
}

TEST(CoordinatedOmission, NonSaturatingPaceStaysNearServiceTime) {
  // The fix must not inflate latencies when the client keeps up: at a pace
  // well below one lane's capacity the intended and actual issue times
  // coincide and p99 stays within the service-time regime.
  RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = WorkloadSpec::ycsb_a();
  cfg.workload.op_count = 2000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  cfg.workload.target_rate_per_client = 20.0;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 200 * kMillisecond;
  cfg.seed = 11;
  const auto r = run_experiment(cfg);
  EXPECT_LT(r.read_latency.percentile(99), 100 * kMillisecond)
      << r.read_latency.summary();
}

// ---- allocation discipline --------------------------------------------------

/// Minimal ClientEnv: plain counters, a real (unattached) monitor, a static
/// policy — exactly what the engine touches per operation, nothing that
/// would allocate on the runner's behalf.
class OpenLoopAllocEnv final : public ClientEnv {
 public:
  OpenLoopAllocEnv()
      : cluster_(sim_, cluster_cfg()), monitor_(monitor::MonitorConfig{}) {
    policy::PolicyInit init;
    init.rf = 3;
    init.local_rf = cluster_.config().local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = core::static_level(cluster::Level::kOne)(init);
    spec_ = WorkloadSpec::ycsb_a();
    spec_.record_count = 400;
    spec_.open_loop.enabled = true;
    // Overdriven on purpose: a tiny in-flight window and FIFO keep the
    // issue/queue/shed overload machinery all active in steady state.
    spec_.open_loop.rate_per_s = 20'000;
    spec_.open_loop.duration = 4 * kSecond;
    spec_.open_loop.drain_grace = kSecond;
    spec_.open_loop.user_count = 5000;
    spec_.open_loop.max_in_flight_per_dc = 8;
    spec_.open_loop.queue_capacity_per_dc = 32;
    cluster_.preload_range(spec_.record_count, spec_.value_size);
  }

  const WorkloadSpec& spec() const { return spec_; }
  sim::Simulation& sim() { return sim_; }

  bool next_op(Op&) override { return false; }
  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }
  void on_read_complete(const cluster::ReadResult&, SimDuration,
                        int) override {
    ++reads;
  }
  void on_write_complete(const cluster::WriteResult&, SimDuration) override {
    ++writes;
  }
  void on_client_finished() override { ++finished; }

  std::uint64_t reads = 0, writes = 0, finished = 0;

 private:
  static cluster::ClusterConfig cluster_cfg() {
    cluster::ClusterConfig c;
    c.node_count = 8;
    c.dc_count = 2;
    c.rf = 3;
    c.latency = net::TieredLatencyModel::ec2_two_az();
    return c;
  }

  sim::Simulation sim_{7};
  cluster::Cluster cluster_;
  monitor::Monitor monitor_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  WorkloadSpec spec_;
};

TEST(OpenLoop, SteadyStateIsAllocationFree) {
  OpenLoopAllocEnv env;
  auto keys = env.spec().request_dist.build(env.spec().record_count);
  const ScrambledZipfianKeys users(env.spec().open_loop.user_count,
                                   env.spec().open_loop.user_zipf_theta);
  OpenLoopSource src(env, /*dc=*/0, env.spec(),
                     env.spec().open_loop.rate_per_s, /*insert_lane=*/0,
                     /*insert_stride=*/1, env.sim().fork_rng(9),
                     std::move(keys), users);
  src.start();
  src.set_measuring(true);

  // Warm-up: event slabs, slot pools, monitor buckets, store tables all
  // reach their high-water marks under the same overloaded regime the
  // measured window runs at.
  env.sim().run_until(kSecond);
  ASSERT_GT(env.reads + env.writes, 1000u) << "warm-up ran no traffic";

  const harmony::testing::AllocGuard guard;
  env.sim().run_until(3 * kSecond);
  EXPECT_EQ(guard.allocations(), 0u)
      << "open-loop steady state (arrive/queue/shed/issue/complete) must not "
         "touch the heap";

  // Drain and check the ledger end-to-end.
  env.sim().run_until(env.spec().open_loop.duration +
                      env.spec().open_loop.drain_grace);
  OpenLoopResult ol;
  src.collect(ol);
  expect_ledger_conserved(ol);
  EXPECT_GT(ol.completed, 0u);
  EXPECT_GT(ol.shed_queue_full, 0u);
  EXPECT_EQ(env.finished, 1u);
}

}  // namespace
}  // namespace harmony::workload
