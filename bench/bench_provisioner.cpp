// §V extension — cost-efficient storage provisioning under consistency,
// performance and failure constraints.
//
// "We plan to provide an efficient mechanism that considers application and
//  environment constraints such as the level of consistency or the presence
//  of failing nodes. Accordingly, the quantity of additional storage nodes
//  that reduce the bill is computed."
//
// Part 1 is the analytic planning table. Part 2 validates a slice of it in
// the simulator: each plan's cluster is run under its target demand as a
// multi-seed sweep (see --seeds/--jobs) and the measured throughput and
// staleness are reported ±95% CI next to the plan's promises.
#include "bench_common.h"

#include "core/provisioner.h"
#include "core/static_policy.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const auto args = bench::BenchArgs::parse(
      argc, argv, 20'000,
      {"dataset_gb", "validate_demand", "sim_node_capacity"});

  bench::print_header(
      "§V provisioning — cheapest node count under constraints",
      "demand x consistency level x tolerated failures -> node count and "
      "monthly bill (EC2 2012 prices)");

  core::StorageProvisioner provisioner;
  TextTable table({"demand (ops/s)", "read level", "failures tolerated",
                   "nodes", "monthly bill", "degraded capacity", "util@demand"});

  for (const double demand : {5'000.0, 20'000.0, 50'000.0}) {
    for (const int level : {1, 2, 3}) {
      for (const int failures : {0, 1, 2}) {
        core::ProvisioningRequest req;
        req.demand_ops_per_s = demand;
        req.read_replicas = level;
        req.rf = 3;
        req.tolerated_failures = failures;
        req.dataset_gb = args.config.get_double("dataset_gb", 24.0);
        const auto plan = provisioner.plan(req);
        table.add_row({TextTable::num(demand, 0), std::to_string(level),
                       std::to_string(failures),
                       plan.feasible ? std::to_string(plan.nodes) : "infeasible",
                       TextTable::money(plan.monthly_bill.total()),
                       TextTable::num(plan.degraded_capacity_ops_per_s, 0),
                       TextTable::pct(plan.utilization_at_demand)});
      }
    }
  }
  bench::print_table(table, args.csv);
  std::printf("\n");

  core::ProvisioningRequest weak, strong;
  weak.read_replicas = 1;
  strong.read_replicas = 3;
  const auto weak_plan = provisioner.plan(weak);
  const auto strong_plan = provisioner.plan(strong);
  bench::claim(
      "(future work) stronger consistency requirements should need more "
      "nodes — and money — for the same demand",
      "at 10k ops/s: level ONE needs " + std::to_string(weak_plan.nodes) +
          " nodes ($" + bench::fmt("%.0f", weak_plan.monthly_bill.total()) +
          "/mo), level THREE needs " + std::to_string(strong_plan.nodes) +
          " nodes ($" + bench::fmt("%.0f", strong_plan.monthly_bill.total()) +
          "/mo)");

  // ---------------- simulated validation of the planned clusters -----------
  const double demand = args.config.get_double("validate_demand", 5'000.0);
  // The analytic table above uses EC2-grade per-node capacity; the validation
  // plans are re-sized with the *simulator's* measured per-node capacity
  // (--sim_node_capacity replica-ops/s) so the mechanism — not the hardware
  // constant — is what gets checked.
  const double sim_node_capacity =
      args.config.get_double("sim_node_capacity", 2'000.0);
  bench::print_header(
      "§V provisioning — simulated validation",
      "plans re-sized for the simulator's node capacity (" +
          bench::fmt("%.0f", sim_node_capacity) +
          " replica-ops/s) and simulated under their target demand (" +
          std::to_string(args.ops) + " ops, " + args.seeds_note() +
          "); measured throughput should sit near the demand with "
          "utilization headroom to spare");

  struct Planned {
    int level;
    core::ProvisioningPlan plan;
  };
  std::vector<Planned> plans;
  workload::SweepRunner sweep(args.sweep_options());
  for (const int level : {1, 2, 3}) {
    core::ProvisioningRequest req;
    req.demand_ops_per_s = demand;
    req.read_replicas = level;
    req.rf = 3;
    req.tolerated_failures = 0;
    req.node_replica_ops_per_s = sim_node_capacity;
    // The simulated node's service times inflate near saturation (that is
    // the paper's staleness mechanism), so validate with extra headroom.
    req.target_utilization = 0.45;
    const auto plan = provisioner.plan(req);
    if (!plan.feasible) continue;
    plans.push_back({level, plan});

    workload::RunConfig cfg;
    cfg.label = "level " + std::to_string(level);
    cfg.cluster.node_count = static_cast<std::size_t>(plan.nodes);
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 3;
    cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.workload = workload::WorkloadSpec::heavy_read_update();
    cfg.workload.op_count = args.ops;
    cfg.workload.record_count = 500;
    // Clients pace semi-open-loop (arrivals at the target rate, never
    // overlapping), so per-client throughput is capped by 1/latency; spread
    // the demand over enough clients that WAN-latency levels can still
    // offer the full load.
    cfg.workload.clients_per_dc = 150;
    cfg.workload.target_rate_per_client = demand / 300.0;
    cfg.policy = core::static_counts(level, 1);
    cfg.policy_tick = 500 * kMillisecond;
    cfg.warmup = 600 * kMillisecond;
    cfg.seed = args.seed;
    sweep.add(cfg);
  }
  const auto results = sweep.run();

  TextTable sim_table({"read level", "nodes (planned)", "util@demand (planned)",
                       "throughput (measured)", "demand met?",
                       "stale (oracle)", "read p95"});
  // Clients pace semi-open-loop (arrivals never overlap an outstanding op),
  // which by itself caps sustained throughput at ~90% of the nominal rate
  // even on an idle cluster; 85% of demand with healthy latency therefore
  // means the plan carried the load without saturation collapse.
  std::size_t met = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& s = results[i];
    const auto read_p95 = s.over([](const workload::RunResult& r) {
      return static_cast<double>(r.read_latency.p95());
    });
    const bool ok = s.throughput.mean >= 0.85 * demand;
    met += ok;
    sim_table.add_row({std::to_string(plans[i].level),
                       std::to_string(plans[i].plan.nodes),
                       TextTable::pct(plans[i].plan.utilization_at_demand),
                       bench::ci_num(s.throughput, 0), ok ? "yes" : "NO",
                       bench::ci_pct(s.stale_fraction),
                       bench::ci_dur(read_p95)});
  }
  bench::print_table(sim_table, args.csv);
  std::printf("\n");
  bench::claim(
      "(future work) the planned node counts should actually carry the "
      "demand they were sized for",
      std::to_string(met) + "/" + std::to_string(results.size()) +
          " simulated plans sustain >= 85% of their target demand (the "
          "semi-open-loop clients cap offered load below the nominal rate; "
          "short --ops runs undershoot further)");
  return 0;
}
