// Bismar: cost-efficient consistency tuning (paper §III-B; tech report
// hal-00756314, "Consistency in the cloud: when money does matter!").
//
// "Bismar relies on a relative computation of the expected cost and
//  probabilistic estimation of consistency in the cloud. At runtime, the
//  consistency level with the highest consistency-cost efficiency value is
//  always chosen."
//
// Each tick, for every replica count k in [1, rf], the controller combines
//   - P_stale(k) from the shared Fig. 1 estimator (consistency), and
//   - the expected relative cost at k (instances via the monitor's per-level
//     latency estimates, network via the analytic cross-DC bytes model),
// and switches to argmax efficiency (cost::ConsistencyCostEfficiency with its
// default weights and exponent). Writes wait for one ack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stale_model.h"
#include "cost/cost_model.h"
#include "workload/policy.h"

namespace harmony::core {

class BismarController final : public policy::ConsistencyPolicy {
 public:
  BismarController(int rf, int local_rf);

  cluster::ReplicaRequirement read_requirement() const override;
  cluster::ReplicaRequirement write_requirement() const override;
  void tick(const monitor::SystemState& state) override;
  std::string name() const override { return "bismar"; }
  std::uint64_t switches() const override { return switches_; }

  int current_replicas() const { return k_; }
  /// Last efficiency ranking (for benches that print the metric table).
  const std::vector<cost::EfficiencyPoint>& last_ranking() const {
    return ranking_;
  }

 private:
  int rf_;
  int local_rf_;
  int k_ = 1;
  std::uint64_t switches_ = 0;
  std::vector<cost::EfficiencyPoint> ranking_;
};

policy::PolicyFactory bismar_policy();

}  // namespace harmony::core
