// Provisioning planner (paper §V): answer "how many nodes do I lease?" for a
// target workload under consistency, performance and failure constraints.
//
//   ./provisioning_planner --demand=25000 --level=2 --failures=1
//                          --read_fraction=0.8 --dataset_gb=24
#include <cstdio>

#include "common/config.h"
#include "core/provisioner.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const Config options = Config::from_args(
      argc, argv,
      {"demand", "level", "rf", "failures", "read_fraction", "dataset_gb"});

  core::ProvisioningRequest req;
  req.demand_ops_per_s = options.get_double("demand", 25'000);
  req.read_replicas = static_cast<int>(options.get_int("level", 1));
  req.rf = static_cast<int>(options.get_int("rf", 3));
  req.tolerated_failures = static_cast<int>(options.get_int("failures", 1));
  req.read_fraction = options.get_double("read_fraction", 0.8);
  req.dataset_gb = options.get_double("dataset_gb", 24.0);

  std::printf("request: %.0f ops/s, %.0f%% reads, read level %d of rf=%d, "
              "survive %d failures, %.0f GB dataset\n\n",
              req.demand_ops_per_s, req.read_fraction * 100, req.read_replicas,
              req.rf, req.tolerated_failures, req.dataset_gb);

  core::StorageProvisioner provisioner;
  const auto plan = provisioner.plan(req);
  if (!plan.feasible) {
    std::printf("NOT FEASIBLE: %s\n", plan.rationale.c_str());
    return 1;
  }
  std::printf("plan: lease %d nodes\n", plan.nodes);
  std::printf("  degraded capacity : %.0f ops/s (after %d failures)\n",
              plan.degraded_capacity_ops_per_s, req.tolerated_failures);
  std::printf("  utilization@demand: %.0f%%\n",
              plan.utilization_at_demand * 100);
  std::printf("  monthly bill      : %s\n",
              plan.monthly_bill.summary().c_str());

  // Show the trade-off curve around the chosen point.
  std::printf("\nnearby options:\n");
  for (const auto& p : provisioner.sweep(req)) {
    if (p.nodes < plan.nodes - 2 || p.nodes > plan.nodes + 3) continue;
    std::printf("  %2d nodes: %s, capacity %.0f ops/s, $%.0f/mo\n", p.nodes,
                p.feasible ? "ok      " : "too small",
                p.degraded_capacity_ops_per_s, p.monthly_bill.total());
  }
  return 0;
}
