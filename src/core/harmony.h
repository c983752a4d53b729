// Harmony: automated self-adaptive consistency (paper §III-A; Chihoub et al.,
// CLUSTER'12).
//
// "Harmony relies on a simple algorithm that compares the estimated stale
//  reads rate in the system to the application tolerated stale reads rate.
//  Accordingly, it chooses whether to select the basic consistency level ONE
//  (involving only one replica) or else, computes the number of involved
//  replicas necessary to maintain an acceptable stale reads rate."
//
// Every tick, the controller rebuilds the Fig. 1 estimator from the
// monitoring snapshot (write rate + propagation-delay profile) and sets the
// read replica count to StaleReadModel::min_replicas_for(tolerance). An
// optional cooldown keeps it from flapping between adjacent levels on noisy
// windows. Writes wait for one ack: Harmony tunes the read side, and the
// paper's runs keep eventual writes. The estimator takes no read-path
// offset: the paper's conservative reading of Fig. 1 can only overestimate
// staleness and therefore never violates the tolerance.
#pragma once

#include <cstdint>
#include <string>

#include "core/stale_model.h"
#include "workload/policy.h"

namespace harmony::core {

struct HarmonyOptions {
  /// Application-tolerated stale-read rate (e.g. 0.2 and 0.4 in the paper's
  /// Grid'5000 runs, 0.4 and 0.6 on EC2).
  double tolerance = 0.2;
  /// Minimum simulated time between level changes (0 = retune every tick).
  SimDuration cooldown = 0;
  /// Write-rate share assumed to contend with reads. Negative (default)
  /// means *auto*: use the monitor's measured key-collision index, so only
  /// writes landing on keys a read may target count. 1.0 reproduces the
  /// paper's coarse system-wide approximation (every write contends);
  /// bench_ablation compares the two.
  double contention = -1.0;
};

class HarmonyController final : public policy::ConsistencyPolicy {
 public:
  HarmonyController(HarmonyOptions options, int rf);

  cluster::ReplicaRequirement read_requirement() const override;
  cluster::ReplicaRequirement write_requirement() const override;
  void tick(const monitor::SystemState& state) override;
  std::string name() const override;
  std::uint64_t switches() const override { return switches_; }

  // ---- introspection (examples/benches print these) -----------------------
  int current_replicas() const { return k_; }
  /// Latest estimated stale-read probability at level ONE.
  double estimate_at_one() const { return est_one_; }
  /// Latest estimated stale-read probability at the chosen level.
  double estimate_at_current() const { return est_current_; }

 private:
  HarmonyOptions opt_;
  int rf_;
  int k_ = 1;
  double est_one_ = 0;
  double est_current_ = 0;
  SimTime last_switch_ = 0;
  std::uint64_t switches_ = 0;
};

/// RunConfig factory.
policy::PolicyFactory harmony_policy(HarmonyOptions options);
policy::PolicyFactory harmony_policy(double tolerance);

}  // namespace harmony::core
