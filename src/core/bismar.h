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
// and switches to argmax efficiency (cost::ConsistencyCostEfficiency).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stale_model.h"
#include "cost/cost_model.h"
#include "workload/policy.h"

namespace harmony::core {

struct BismarOptions {
  cost::CostWeights weights{};
  double alpha = 2.0;        ///< consistency exponent in the efficiency metric
  int write_acks = 1;
  SimDuration cooldown = 0;  ///< minimum time between level switches
  double contention = -1.0;  ///< as in HarmonyOptions (negative = auto)
  /// Fraction of the monitored local replica RTT treated as read-path
  /// sampling delay in the stale estimator (see StaleModelParams). Bismar is
  /// a cost optimizer, so it uses the sharper (less conservative) estimate.
  double read_offset_factor = 0.75;
  /// Value size in the analytic cross-DC bytes estimate. Header and digest
  /// sizes are the cluster's own (cluster::kMessageOverheadBytes,
  /// cluster::kDigestBytes).
  double value_bytes = 1024;
  /// Read share of the workload used for the network estimate when the
  /// monitor has no rates yet.
  double default_read_fraction = 0.5;
};

class BismarController final : public policy::ConsistencyPolicy {
 public:
  BismarController(BismarOptions options, int rf, int local_rf);

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
  BismarOptions opt_;
  int rf_;
  int local_rf_;
  int k_ = 1;
  SimTime last_switch_ = 0;
  std::uint64_t switches_ = 0;
  std::vector<cost::EfficiencyPoint> ranking_;
};

policy::PolicyFactory bismar_policy(BismarOptions options = {});

}  // namespace harmony::core
