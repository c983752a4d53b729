// Freshness-deadline consistency — the paper's third future-work direction
// (§V): an eventually consistent mode that "provides guarantees on the
// freshness of data read ... after a set of defined deadlines", with
// different guarantee levels.
//
// Guarantee: P(read returns data stale by more than `deadline`) <= epsilon.
// Each tick the policy asks the Fig. 1 estimator for the smallest replica
// count whose tail-staleness probability beyond the deadline is within
// epsilon — bounded-staleness-age rather than bounded-stale-rate (Harmony).
#pragma once

#include <cstdint>
#include <string>

#include "core/stale_model.h"
#include "workload/policy.h"

namespace harmony::core {

struct FreshnessSlaOptions {
  /// Returned data may be at most this stale (age bound).
  SimDuration deadline = 50 * kMillisecond;
  /// Tolerated probability of violating the deadline.
  double epsilon = 0.01;
};

class FreshnessSlaPolicy final : public policy::ConsistencyPolicy {
 public:
  FreshnessSlaPolicy(FreshnessSlaOptions options, int rf);

  cluster::ReplicaRequirement read_requirement() const override;
  cluster::ReplicaRequirement write_requirement() const override;
  void tick(const monitor::SystemState& state) override;
  std::string name() const override;
  std::uint64_t switches() const override { return switches_; }

  int current_replicas() const { return k_; }
  /// Latest estimated P(staleness age > deadline) at the chosen level.
  double estimated_violation() const { return est_violation_; }
  /// Latest estimated expected staleness age at the chosen level (µs).
  double expected_age_us() const { return expected_age_us_; }

 private:
  FreshnessSlaOptions opt_;
  int rf_;
  int k_ = 1;
  double est_violation_ = 0;
  double expected_age_us_ = 0;
  std::uint64_t switches_ = 0;
};

policy::PolicyFactory freshness_sla_policy(FreshnessSlaOptions options);

}  // namespace harmony::core
