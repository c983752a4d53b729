// Quickstart: run an adaptive-consistency experiment in ~20 lines.
//
// Builds a 10-node, 2-datacenter Cassandra-like cluster, drives it with a
// YCSB-A-style workload through the Harmony controller (tolerated stale-read
// rate 20%), and prints what happened — all deterministic from the seed.
//
//   ./quickstart [--ops=N] [--seed=S] [--tolerance=0.2]
#include <cstdio>

#include "common/config.h"
#include "core/harmony.h"
#include "workload/runner.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const Config options =
      Config::from_args(argc, argv, {"ops", "seed", "tolerance"});

  workload::RunConfig cfg;
  cfg.label = "quickstart";

  // The cluster: 10 nodes over two datacenters, 3 replicas per key.
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();

  // The workload: YCSB-A (50/50 read/update, zipfian-hot keys).
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.op_count =
      static_cast<std::uint64_t>(options.get_int("ops", 30'000));
  cfg.workload.record_count = 1'000;
  cfg.workload.clients_per_dc = 12;

  // The policy: Harmony, tuned to tolerate 20% stale reads.
  cfg.policy = core::harmony_policy(options.get_double("tolerance", 0.2));
  cfg.policy_tick = 200 * kMillisecond;
  cfg.warmup = 500 * kMillisecond;
  cfg.seed = static_cast<std::uint64_t>(options.get_int("seed", 1));

  const workload::RunResult r = workload::run_experiment(cfg);

  std::printf("policy         : %s\n", r.policy_name.c_str());
  std::printf("operations     : %llu (%llu reads, %llu writes)\n",
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.reads),
              static_cast<unsigned long long>(r.writes));
  std::printf("throughput     : %.0f ops/s\n", r.throughput);
  std::printf("read latency   : %s\n", r.read_latency.summary().c_str());
  std::printf("write latency  : %s\n", r.write_latency.summary().c_str());
  std::printf("stale reads    : %.2f%% (ground truth)\n",
              r.stale_fraction * 100);
  std::printf("avg replicas/rd: %.2f (Harmony's knob; 1=eventual, %d=strong)\n",
              r.avg_read_replicas, cfg.cluster.rf);
  std::printf("level switches : %llu\n",
              static_cast<unsigned long long>(r.policy_switches));
  std::printf("bill           : %s\n", r.bill.summary().c_str());
  return 0;
}
