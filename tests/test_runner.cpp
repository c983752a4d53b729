#include "workload/runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
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

/// One DC cut into `shards` key-range shards (RunConfig::shards_per_dc) run
/// by `threads` workers; threads == 0 is the unsharded default kernel.
RunConfig key_range_run(unsigned threads, unsigned shards,
                        std::uint64_t ops = 6000) {
  RunConfig cfg = small_run(ops);
  cfg.cluster.dc_count = 1;
  cfg.cluster.node_count = 8;
  // Intra-DC hops cross shards, so the intra-DC floors carry the
  // conservative lookahead.
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.workload.clients_per_dc = 8;
  cfg.num_shard_threads = threads;
  cfg.shards_per_dc = shards;
  cfg.seed = 31;
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

TEST(Runner, ShardedRunRejectsShapesOtherThanOneSplitDc) {
  // Sharded execution means one DC cut into >= 2 key-range shards carrying
  // reads and writes on a healthy cluster; any other shape, and every
  // serial-only setting, fails at construction with a message naming it,
  // never mid-run. The runner calls the policy factory last in its
  // constructor, after the cluster is built and before anything is
  // scheduled, so a rejection that never reached the factory ran no event.
  auto expect_throw_naming = [](auto&& call, const char* setting) {
    try {
      call();
      ADD_FAILURE() << "accepted: " << setting;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(setting), std::string::npos)
          << e.what();
    }
  };
  auto expect_rejected = [&](RunConfig cfg, const char* setting) {
    bool built = false;
    cfg.policy = [&built, inner = cfg.policy](const policy::PolicyInit& init) {
      built = true;
      return inner(init);
    };
    expect_throw_naming([&] { run_experiment(cfg); }, setting);
    EXPECT_FALSE(built) << setting << " was rejected after set-up";
  };
  auto two_dcs = key_range_run(2, 2, 1000);
  two_dcs.cluster.dc_count = 2;
  expect_rejected(two_dcs, "dc_count must be 1");
  auto one_shard = key_range_run(2, 1, 1000);
  expect_rejected(one_shard, "shards_per_dc >= 2");

  // The serial-only settings, one case each.
  auto faults = key_range_run(2, 2, 1000);
  faults.faults.push_back({100 * kMillisecond, 0, true});
  expect_rejected(faults, "faults is serial-only");
  auto schedule = key_range_run(2, 2, 1000);
  schedule.fault_schedule.push_back(
      {100 * kMillisecond, cluster::FaultOp::kDegradeNode, 1, 0, 2.0});
  expect_rejected(schedule, "fault_schedule is serial-only");
  auto trace = key_range_run(2, 2, 1000);
  trace.record_trace = true;
  expect_rejected(trace, "record_trace is serial-only");
  auto inserts = key_range_run(2, 2, 1000);
  inserts.workload.update_proportion = 0.45;
  inserts.workload.insert_proportion = 0.05;
  expect_rejected(inserts, "insert_proportion > 0 is serial-only");
  auto anti_entropy = key_range_run(2, 2, 1000);
  anti_entropy.cluster.anti_entropy_period = 200 * kMillisecond;
  expect_rejected(anti_entropy, "anti_entropy_period > 0 is serial-only");
  auto hedges = key_range_run(2, 2, 1000);
  hedges.cluster.resilience.hedge_reads = true;
  expect_rejected(hedges, "hedge_reads is serial-only");
  auto retries = key_range_run(2, 2, 1000);
  retries.cluster.resilience.read_retries = 2;
  expect_rejected(retries, "read_retries > 0 is serial-only");
  auto admission = key_range_run(2, 2, 1000);
  admission.cluster.resilience.admission_rate = 1000;
  expect_rejected(admission, "admission_rate > 0 is serial-only");

  // The cluster enforces the same on a hand-configured kernel, before
  // anything is scheduled.
  auto expect_cluster_rejects = [&](const cluster::ClusterConfig& cfg,
                                    const char* setting) {
    sim::Simulation sim(3);
    sim.configure_shards(2, usec(150), 2);
    expect_throw_naming([&] { cluster::Cluster c(sim, cfg); }, setting);
    EXPECT_EQ(sim.events_processed(), 0u) << setting;
    EXPECT_TRUE(sim.idle()) << setting;
  };
  expect_cluster_rejects(two_dcs.cluster, "dc_count must be 1");
  expect_cluster_rejects(anti_entropy.cluster,
                         "anti_entropy_period > 0 is serial-only");
  expect_cluster_rejects(hedges.cluster, "hedge_reads is serial-only");
  expect_cluster_rejects(retries.cluster, "read_retries > 0 is serial-only");
  expect_cluster_rejects(admission.cluster,
                         "admission_rate > 0 is serial-only");

  // Fault injection on a sharded cluster: every call throws, schedules
  // nothing and leaves every node alive.
  const cluster::ClusterConfig healthy = key_range_run(2, 2, 1000).cluster;
  const std::pair<const char*, void (*)(cluster::Cluster&)> calls[] = {
      {"schedule_fault is serial-only",
       [](cluster::Cluster& c) {
         c.schedule_fault({kMillisecond, cluster::FaultOp::kKillNode, 0, 0, 1});
       }},
      {"kill_node is serial-only", [](cluster::Cluster& c) { c.kill_node(0); }},
      {"revive_node is serial-only",
       [](cluster::Cluster& c) { c.revive_node(0); }},
      {"kill_dc is serial-only", [](cluster::Cluster& c) { c.kill_dc(0); }},
      {"revive_dc is serial-only", [](cluster::Cluster& c) { c.revive_dc(0); }},
  };
  for (const auto& [setting, call] : calls) {
    sim::Simulation sim(3);
    sim.configure_shards(2, usec(150), 2);
    cluster::Cluster c(sim, healthy);
    expect_throw_naming([&] { call(c); }, setting);
    EXPECT_EQ(sim.events_processed(), 0u) << setting;
    EXPECT_TRUE(sim.idle()) << setting;
    EXPECT_EQ(c.alive_count(), healthy.node_count) << setting;
  }
}

TEST(Runner, ShardedRunIsThreadCountInvariant) {
  // Three shards over eight nodes: an uneven node deal (3/3/2) and an
  // uneven op-budget split.
  auto make = [](unsigned threads) {
    auto cfg = key_range_run(threads, 3);
    cfg.seed = 29;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto two = run_experiment(make(2));
  const auto four = run_experiment(make(4));
  EXPECT_GT(serial.reads, 1000u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, two);
  expect_same_run(serial, four);
  // The merged-serial reference never touches a mailbox.
  EXPECT_EQ(serial.mailbox_spills, 0u);
}

TEST(Runner, ShardedRunRejectsCrossShardSingletons) {
  // Intra-DC hops cross shards, so a zero intra-DC floor leaves the
  // conservative lookahead nothing to stand on.
  auto no_floor = key_range_run(2, 3, 1000);
  no_floor.cluster.latency.same_dc.floor = 0;
  EXPECT_THROW(run_experiment(no_floor), CheckError);
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

TEST(Runner, KeyRangeShardedMonitorFeedsAdaptivePolicy) {
  // The monitor attaches to a sharded run (fed from per-shard logs merged
  // at barriers) and the Harmony policy re-tunes at fenced ticks — both
  // byte-identical across thread counts, including the policy's level
  // decisions (read_level_usage) and the monitor-driven staleness results.
  auto make = [](unsigned threads) {
    auto cfg = key_range_run(threads, 4);
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 100 * kMillisecond;
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

TEST(Runner, ZeroPolicyTickNeverRetunes) {
  // policy_tick == 0 means "never retune" on every kernel: no tick is ever
  // booked, so even an adaptive policy keeps its initial levels.
  for (const unsigned threads : {0u, 2u}) {
    auto cfg = key_range_run(threads, 3, 2000);
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
    auto cfg = key_range_run(threads, 3);
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
    ++issued_;
    op.type = OpType::kRead;
    // Keys the issuing shard owns (all of them on the default kernel).
    do {
      op.key = next_key_++ % kKeys;
    } while (cluster_.home_shard(op.key) != sim_.current_shard());
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
  std::uint64_t next_key_ = 0;
};

TEST(Client, PacedReadIssueTimeReachesObserverAtOneAndTwoShards) {
  // A paced client measures latency from the op's intended arrival, and the
  // observer must see that same instant as the read's issue time — on the
  // default kernel and under sharding alike.
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "two shards" : "default kernel");
    cluster::ClusterConfig cfg;
    cfg.node_count = 8;
    cfg.dc_count = 1;
    cfg.rf = 3;
    cfg.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.latency.same_rack.floor = usec(150);
    cfg.latency.same_dc.floor = usec(150);
    sim::Simulation sim(5);
    if (sharded) sim.configure_shards(2, usec(150), 1);
    const std::uint64_t reads = 200;
    PacedReadEnv env(sim, cfg, reads);
    // On key-range shard 1 when sharded, shard 0 on the default kernel.
    const std::uint8_t shard = sharded ? 1 : 0;
    Client client(env, /*home_dc=*/0, /*target_rate_per_s=*/2000.0,
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
