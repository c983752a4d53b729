// Failover drill: survive a whole-datacenter blackout without losing a
// single client request.
//
// A 10-node, 2-DC cluster serves a YCSB-A mix at CL=ONE with the full
// resilience stack on — hedged reads, one coordinator retry, per-DC
// admission control, and client re-routing. Mid-run, DC 1 goes completely
// dark for 700ms and then recovers. The drill prints the request ledger:
// every issued operation must come back served, shed, or failed — and be
// accounted. All deterministic from the seed.
//
//   ./failover_drill [--ops=N] [--seed=S]
#include <cstdio>

#include "common/config.h"
#include "core/static_policy.h"
#include "workload/runner.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const Config options = Config::from_args(argc, argv, {"ops", "seed"});

  workload::RunConfig cfg;
  cfg.label = "failover-drill";

  // Two datacenters on an AZ-class link, two replicas of every key in each:
  // either side can serve reads at CL=ONE alone.
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 4;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.request_timeout = 100 * kMillisecond;

  // The resilience stack.
  cfg.cluster.resilience.hedge_reads = true;
  cfg.cluster.resilience.hedge_quantile = 0.95;
  cfg.cluster.resilience.read_retries = 1;
  cfg.cluster.resilience.retry_backoff = 5 * kMillisecond;
  cfg.cluster.resilience.admission_rate = 50'000;
  cfg.cluster.resilience.admission_burst = 5'000;

  cfg.workload = [&] {
    auto w = workload::WorkloadSpec::ycsb_a();
    w.op_count = static_cast<std::uint64_t>(options.get_int("ops", 30'000));
    w.record_count = 1'000;
    w.clients_per_dc = 6;
    w.reroute_on_dc_outage = true;
    return w;
  }();
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 0;  // measure everything: the ledger must balance exactly
  cfg.seed = static_cast<std::uint64_t>(options.get_int("seed", 1));

  // The drill: DC 1 drops off the map at t=700ms, recovers at t=1400ms.
  cfg.fault_schedule.push_back(
      {700 * kMillisecond, cluster::FaultOp::kDcBlackout, 0, 1, 1.0});
  cfg.fault_schedule.push_back(
      {1400 * kMillisecond, cluster::FaultOp::kDcRestore, 0, 1, 1.0});

  const workload::RunResult r = workload::run_experiment(cfg);

  const std::uint64_t issued = r.reads + r.writes;
  std::printf("issued         : %llu (%llu reads, %llu writes)\n",
              static_cast<unsigned long long>(issued),
              static_cast<unsigned long long>(r.reads),
              static_cast<unsigned long long>(r.writes));
  std::printf("errors         : %llu (timeouts %llu, unavailable %llu)\n",
              static_cast<unsigned long long>(r.errors),
              static_cast<unsigned long long>(r.timeouts),
              static_cast<unsigned long long>(r.unavailable));
  std::printf("rerouted ops   : %llu\n",
              static_cast<unsigned long long>(r.rerouted_ops));
  std::printf("retries        : %llu\n",
              static_cast<unsigned long long>(r.retries));
  std::printf("hedges         : %llu fired, %llu won\n",
              static_cast<unsigned long long>(r.hedges_fired),
              static_cast<unsigned long long>(r.hedge_wins));
  std::printf("sheds          : %llu (client shed retries %llu)\n",
              static_cast<unsigned long long>(r.sheds),
              static_cast<unsigned long long>(r.client_shed_retries));
  std::printf("read latency   : %s\n", r.read_latency.summary().c_str());
  std::printf("throughput     : %.0f ops/s\n", r.throughput);

  const bool balanced = issued == cfg.workload.op_count;
  std::printf("ledger         : %s (%llu issued / %llu requested)\n",
              balanced ? "balanced" : "UNBALANCED",
              static_cast<unsigned long long>(issued),
              static_cast<unsigned long long>(cfg.workload.op_count));
  return balanced ? 0 : 1;
}
