#include "workload/runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "core/harmony.h"
#include "core/static_policy.h"
#include "workload/client.h"

namespace harmony::workload {
namespace {

RunConfig small_run(std::uint64_t ops = 4000) {
  RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = WorkloadSpec::ycsb_a();
  cfg.workload.op_count = ops;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 200 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

TEST(Runner, CompletesAllOperations) {
  const auto r = run_experiment(small_run());
  EXPECT_GT(r.reads, 1000u);
  EXPECT_GT(r.writes, 1000u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.duration_s, 0.0);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.policy_name, "static-ONE");
}

TEST(Runner, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_run());
  const auto b = run_experiment(small_run());
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.bill.total(), b.bill.total());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(Runner, SeedChangesOutcome) {
  auto cfg = small_run();
  cfg.seed = 12;
  const auto a = run_experiment(small_run());
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.sim_events, b.sim_events);
}

TEST(Runner, LatencyHistogramsPopulated) {
  const auto r = run_experiment(small_run());
  EXPECT_GT(r.read_latency.count(), 0u);
  EXPECT_GT(r.write_latency.count(), 0u);
  EXPECT_GT(r.read_latency.mean(), 0.0);
  EXPECT_LE(r.read_latency.percentile(50), r.read_latency.percentile(99));
}

TEST(Runner, LevelUsageTracksPolicy) {
  auto cfg = small_run();
  cfg.policy = core::static_counts(2, 1);
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.read_level_usage.size(), 1u);
  EXPECT_EQ(r.read_level_usage.begin()->first, 2);
  EXPECT_DOUBLE_EQ(r.avg_read_replicas, 2.0);
}

TEST(Runner, BillDecompositionSumsToTotal) {
  const auto r = run_experiment(small_run());
  EXPECT_NEAR(r.bill.total(),
              r.bill.instances + r.bill.storage + r.bill.network + r.bill.energy,
              1e-12);
  EXPECT_GT(r.bill.instances, 0.0);
  EXPECT_GT(r.usage.node_hours, 0.0);
  EXPECT_GT(r.usage.io_requests, 0u);
  EXPECT_GT(r.usage.cross_dc_gb, 0.0);
}

TEST(Runner, StaleFractionConsistentWithCounts) {
  const auto r = run_experiment(small_run());
  const auto judged = r.stale_reads + r.fresh_reads;
  ASSERT_GT(judged, 0u);
  EXPECT_NEAR(r.stale_fraction,
              static_cast<double>(r.stale_reads) / static_cast<double>(judged),
              1e-12);
}

TEST(Runner, ThroughputMatchesOpsOverTime) {
  const auto r = run_experiment(small_run());
  // ops counted post-warmup; throughput = measured ops / measured span.
  EXPECT_NEAR(r.throughput * r.duration_s, static_cast<double>(r.ops),
              static_cast<double>(r.ops) * 0.05);
}

TEST(Runner, TargetRateThrottlesClients) {
  auto fast = small_run(3000);
  const auto unthrottled = run_experiment(fast);
  auto slow = small_run(3000);
  slow.workload.target_rate_per_client = 20.0;  // 16 clients * 20 = 320 ops/s
  const auto throttled = run_experiment(slow);
  EXPECT_LT(throttled.throughput, unthrottled.throughput);
  EXPECT_NEAR(throttled.throughput, 320.0, 80.0);
}

TEST(Runner, RmwWorkloadRuns) {
  auto cfg = small_run(3000);
  cfg.workload = WorkloadSpec::ycsb_a();  // 50/50 read/read-modify-write
  cfg.workload.update_proportion = 0.0;
  cfg.workload.rmw_proportion = 0.5;
  cfg.workload.op_count = 3000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.writes, 0u);  // the write halves of RMW ops
}

TEST(Runner, InsertWorkloadGrowsKeySpace) {
  auto cfg = small_run(3000);
  cfg.workload = WorkloadSpec::ycsb_b();  // 95/5 read/insert
  cfg.workload.update_proportion = 0.0;
  cfg.workload.insert_proportion = 0.05;
  cfg.workload.op_count = 3000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.writes, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Runner, RequiresPolicy) {
  RunConfig cfg;
  EXPECT_THROW(run_experiment(cfg), CheckError);
}

TEST(Runner, RejectsNegativePolicyTick) {
  auto cfg = small_run(100);
  cfg.policy_tick = -1;
  EXPECT_THROW(run_experiment(cfg), CheckError);
}

TEST(Runner, RejectsNegativeWarmup) {
  auto cfg = small_run(100);
  cfg.warmup = -1;
  EXPECT_THROW(run_experiment(cfg), CheckError);
}

// ---- sharded execution (RunConfig::num_shard_threads) ----------------------

RunConfig sharded_run(unsigned threads, std::uint64_t ops = 6000) {
  RunConfig cfg = small_run(ops);
  cfg.cluster.node_count = 9;
  cfg.cluster.dc_count = 3;
  // The cross-DC propagation floor doubles as the conservative lookahead.
  cfg.cluster.latency.cross_dc.floor = kMillisecond;
  cfg.workload.clients_per_dc = 6;
  cfg.num_shard_threads = threads;
  cfg.seed = 29;
  return cfg;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_EQ(a.fresh_reads, b.fresh_reads);
  EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes());
  EXPECT_EQ(a.read_latency.count(), b.read_latency.count());
  EXPECT_EQ(a.read_latency.percentile(99), b.read_latency.percentile(99));
  EXPECT_EQ(a.write_latency.percentile(99), b.write_latency.percentile(99));
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.bill.total(), b.bill.total());
}

TEST(Runner, ShardedRunIsThreadCountInvariant) {
  const auto serial = run_experiment(sharded_run(1));
  const auto two = run_experiment(sharded_run(2));
  const auto four = run_experiment(sharded_run(4));
  EXPECT_GT(serial.reads, 1000u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, two);
  expect_same_run(serial, four);
  // The merged-serial reference never touches a mailbox.
  EXPECT_EQ(serial.mailbox_spills, 0u);
}

TEST(Runner, ShardedInsertWorkloadIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 4000);
    cfg.workload = WorkloadSpec::ycsb_b();  // inserts: per-DC key lanes
    cfg.workload.update_proportion = 0.0;
    cfg.workload.insert_proportion = 0.05;
    cfg.workload.op_count = 4000;
    cfg.workload.record_count = 500;
    cfg.workload.clients_per_dc = 6;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  EXPECT_GT(serial.writes, 0u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, four);
}

TEST(Runner, ShardedSingleDcMatchesUnshardedExactly) {
  auto make = [](unsigned threads) {
    auto cfg = small_run(3000);
    cfg.cluster.dc_count = 1;
    cfg.cluster.node_count = 6;
    cfg.cluster.latency.cross_dc.floor = kMillisecond;
    cfg.num_shard_threads = threads;
    return cfg;
  };
  // One DC = one shard: the full serial machinery (monitor, policy ticks,
  // per-read staleness) stays on, and the run is byte-identical to the
  // unsharded default.
  const auto plain = run_experiment(make(0));
  const auto sharded = run_experiment(make(4));
  expect_same_run(plain, sharded);
  EXPECT_DOUBLE_EQ(plain.stale_fraction, sharded.stale_fraction);
}

TEST(Runner, ShardedRunRejectsCrossShardSingletons) {
  // The legacy kill/revive list lowers to fenced fault_schedule entries, so
  // a sharded run accepts it and stays thread-count invariant.
  auto with_faults = [](unsigned threads) {
    auto cfg = sharded_run(threads, 1000);
    cfg.faults.push_back({100 * kMillisecond, 0, true});
    return cfg;
  };
  expect_same_run(run_experiment(with_faults(1)),
                  run_experiment(with_faults(4)));

  auto no_floor = sharded_run(2, 1000);
  no_floor.cluster.latency.cross_dc.floor = 0;
  EXPECT_THROW(run_experiment(no_floor), CheckError);
}

TEST(Runner, ShardedTraceCaptureMatchesSerial) {
  // record_trace used to be rejected under sharding; it now captures into
  // per-shard buffers stitched by (time, seq) at collect. The merged trace
  // must be byte-identical to the merged-serial reference for every thread
  // count.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 2000);
    cfg.record_trace = true;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  ASSERT_NE(serial.trace, nullptr);
  ASSERT_NE(four.trace, nullptr);
  ASSERT_EQ(serial.trace->records.size(), four.trace->records.size());
  EXPECT_GT(serial.trace->records.size(), 1000u);
  for (std::size_t i = 0; i < serial.trace->records.size(); ++i) {
    const auto& a = serial.trace->records[i];
    const auto& b = four.trace->records[i];
    ASSERT_EQ(a.time, b.time) << "trace diverges at record " << i;
    ASSERT_EQ(a.op, b.op) << "trace diverges at record " << i;
    ASSERT_EQ(a.key, b.key) << "trace diverges at record " << i;
    ASSERT_EQ(a.value_size, b.value_size) << "trace diverges at record " << i;
  }
}

// ---- key-range sharding (RunConfig::shards_per_dc) --------------------------

/// Single-DC run split into `shards` key-range shards: the configuration
/// PR 8 could not parallelize at all (one DC == one shard == one thread).
RunConfig key_range_run(unsigned threads, unsigned shards,
                        std::uint64_t ops = 6000) {
  RunConfig cfg = small_run(ops);
  cfg.cluster.dc_count = 1;
  cfg.cluster.node_count = 8;
  cfg.cluster.latency.cross_dc.floor = kMillisecond;
  // Intra-DC hops cross shards now, so the intra-DC floors must cover the
  // lookahead (the runner takes the min over all three).
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.workload.clients_per_dc = 8;
  cfg.num_shard_threads = threads;
  cfg.shards_per_dc = shards;
  cfg.seed = 31;
  return cfg;
}

TEST(Runner, KeyRangeShardedRunIsThreadCountInvariant) {
  const auto serial = run_experiment(key_range_run(1, 4));
  const auto two = run_experiment(key_range_run(2, 4));
  const auto four = run_experiment(key_range_run(4, 4));
  EXPECT_GT(serial.reads, 1000u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, two);
  expect_same_run(serial, four);
  EXPECT_EQ(serial.mailbox_spills, 0u);
}

TEST(Runner, KeyRangeShardedInsertWorkloadIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = key_range_run(threads, 4, 4000);
    cfg.workload = WorkloadSpec::ycsb_b();  // inserts: skip-scan lanes
    cfg.workload.update_proportion = 0.0;
    cfg.workload.insert_proportion = 0.05;
    cfg.workload.op_count = 4000;
    cfg.workload.record_count = 500;
    cfg.workload.clients_per_dc = 8;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  EXPECT_GT(serial.writes, 0u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, four);
}

TEST(Runner, KeyRangeShardedMonitorFeedsAdaptivePolicy) {
  // The lifted restrictions working together: the monitor attaches to a
  // sharded run (fed from per-shard logs merged at barriers), the Harmony
  // policy re-tunes at fenced ticks, and anti-entropy sweeps per shard —
  // all byte-identical across thread counts, including the policy's level
  // decisions (read_level_usage) and the monitor-driven staleness results.
  auto make = [](unsigned threads) {
    auto cfg = key_range_run(threads, 4);
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 100 * kMillisecond;
    cfg.cluster.anti_entropy_period = 200 * kMillisecond;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  expect_same_run(serial, four);
  ASSERT_FALSE(serial.read_level_usage.empty());
  ASSERT_EQ(serial.read_level_usage.size(), four.read_level_usage.size());
  for (const auto& [level, count] : serial.read_level_usage) {
    EXPECT_EQ(four.read_level_usage.at(level), count) << "level " << level;
  }
  EXPECT_EQ(serial.policy_switches, four.policy_switches);
  // The monitor really saw traffic: its final state drives the paper's
  // estimators, so a silently-empty monitor would pass expect_same_run.
  EXPECT_GT(serial.final_state.read_rate, 0.0);
  EXPECT_DOUBLE_EQ(serial.final_state.read_rate, four.final_state.read_rate);
  EXPECT_DOUBLE_EQ(serial.final_state.write_rate, four.final_state.write_rate);
}

TEST(Runner, ShardedPerDcMonitorPolicyAntiEntropyThreadInvariant) {
  // The same lifted restrictions on the PR 8 per-DC layout (3 DCs, one
  // shard each): monitor, fenced Harmony policy ticks, and per-shard
  // anti-entropy, byte-identical between merged-serial and 4 threads.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads);
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 100 * kMillisecond;
    cfg.cluster.anti_entropy_period = 200 * kMillisecond;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  expect_same_run(serial, four);
  EXPECT_EQ(serial.policy_switches, four.policy_switches);
  EXPECT_GT(serial.final_state.read_rate, 0.0);
  EXPECT_DOUBLE_EQ(serial.final_state.read_rate, four.final_state.read_rate);
}

TEST(Runner, ShardedFaultScheduleIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 5000);
    // Kill one node per DC mid-run and revive it; fault instants are fences.
    for (net::NodeId n = 0; n < 3; ++n) {
      cfg.fault_schedule.push_back({300 * kMillisecond + n * 50 * kMillisecond,
                                    cluster::FaultOp::kKillNode, n, 0, 1.0});
      cfg.fault_schedule.push_back({800 * kMillisecond + n * 50 * kMillisecond,
                                    cluster::FaultOp::kReviveNode, n, 0, 1.0});
    }
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  expect_same_run(serial, four);
}

TEST(Runner, ZeroPolicyTickNeverRetunes) {
  // policy_tick == 0 means "never retune" on every kernel: no tick is ever
  // booked, so even an adaptive policy keeps its initial levels.
  for (const unsigned threads : {0u, 2u}) {
    auto cfg = sharded_run(threads, 2000);
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 0;
    const auto r = run_experiment(cfg);
    EXPECT_GT(r.reads, 0u) << "threads " << threads;
    EXPECT_EQ(r.policy_switches, 0u) << "threads " << threads;
  }
}

TEST(Runner, IdleRunStopsPolicyTimerAtItsFirstTick) {
  // No source ever sends traffic, so every lane has drained before the
  // first tick; that tick stops the timer instead of ticking to the horizon
  // (25 s here, i.e. 50 ticks). It is the run's only event on both kernels.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads);
    cfg.workload.open_loop.enabled = true;
    cfg.workload.open_loop.rate_per_s = 1e-10;  // no arrival lands
    cfg.workload.open_loop.user_count = 1000;
    cfg.workload.open_loop.max_in_flight_per_dc = 64;
    cfg.warmup = 0;
    return cfg;
  };
  const auto serial = run_experiment(make(0));
  const auto sharded = run_experiment(make(2));
  EXPECT_EQ(serial.open_loop.arrivals, 0u);
  EXPECT_EQ(sharded.open_loop.arrivals, 0u);
  EXPECT_EQ(serial.sim_events, 1u);
  EXPECT_EQ(sharded.sim_events, 1u);
}

// ---- the client measurement funnel (Cluster::record_*) ----------------------

/// Records the client-side read hooks the cluster forwards to its observer.
class ReadHookRecorder final : public cluster::ClusterObserver {
 public:
  void record_read_issued(SimTime now, cluster::Key) override {
    issued.push_back(now);
  }
  void record_read_complete(SimTime now, SimDuration latency) override {
    started.push_back(now - latency);
  }
  std::vector<SimTime> issued;   ///< issue time per read
  std::vector<SimTime> started;  ///< completion time - latency per read
};

/// Minimal ClientEnv: one paced client issuing `reads` reads through a
/// static ONE policy; its own monitor is deliberately left unattached, so
/// only what the cluster forwards reaches the recorder.
class PacedReadEnv final : public ClientEnv {
 public:
  PacedReadEnv(sim::Simulation& sim, const cluster::ClusterConfig& cfg,
               std::uint64_t reads)
      : sim_(sim), cluster_(sim, cfg), monitor_(monitor::MonitorConfig{}),
        reads_(reads) {
    policy::PolicyInit init;
    init.rf = cfg.rf;
    init.local_rf = cfg.local_rf(0);
    init.rng = sim.fork_rng(0x90110C);
    policy_ = core::static_level(cluster::Level::kOne)(init);
    cluster_.preload_range(kKeys, 100);
    cluster_.set_observer(&recorder);
  }

  bool next_op(Op& op) override {
    if (issued_ == reads_) return false;
    op.type = OpType::kRead;
    op.key = issued_++ % kKeys;
    op.value_size = 100;
    return true;
  }
  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }
  void on_read_complete(const cluster::ReadResult&, SimDuration,
                        int) override {}
  void on_write_complete(const cluster::WriteResult&, SimDuration) override {}
  void on_client_finished() override {}

  ReadHookRecorder recorder;

 private:
  static constexpr std::uint64_t kKeys = 100;
  sim::Simulation& sim_;
  cluster::Cluster cluster_;
  monitor::Monitor monitor_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::uint64_t reads_;
  std::uint64_t issued_ = 0;
};

TEST(Client, PacedReadIssueTimeReachesObserverAtOneAndTwoShards) {
  // A paced client measures latency from the op's intended arrival, and the
  // observer must see that same instant as the read's issue time — on the
  // default kernel and under sharding alike.
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "two shards" : "default kernel");
    cluster::ClusterConfig cfg;
    cfg.node_count = 8;
    cfg.dc_count = 2;
    cfg.rf = 3;
    cfg.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.latency.cross_dc.floor = kMillisecond;
    sim::Simulation sim(5);
    if (sharded) sim.configure_shards({1, 1}, kMillisecond, 1);
    const std::uint64_t reads = 200;
    PacedReadEnv env(sim, cfg, reads);
    // Homed in DC 1: its shard is 1 when sharded, 0 on the default kernel.
    const std::uint8_t shard = sharded ? 1 : 0;
    Client client(env, /*home_dc=*/1, /*target_rate_per_s=*/2000.0,
                  sim.fork_rng(0xC11E017), false, 8, shard);
    sim.set_setup_shard(shard);
    client.start();
    sim.set_setup_shard(0);
    sim.run();
    const ReadHookRecorder& rec = env.recorder;
    ASSERT_EQ(rec.issued.size(), reads);
    ASSERT_EQ(rec.started.size(), reads);
    for (std::size_t i = 0; i < reads; ++i) {
      ASSERT_EQ(rec.issued[i], rec.started[i]) << "read " << i;
    }
  }
}

TEST(Runner, SummaryContainsPolicyName) {
  const auto r = run_experiment(small_run(2000));
  EXPECT_NE(r.summary().find("static-ONE"), std::string::npos);
}

}  // namespace
}  // namespace harmony::workload
