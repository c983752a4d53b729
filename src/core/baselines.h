// Related-work baselines (paper §II), reconstructed so the benches can
// compare Harmony/Bismar against the approaches the paper positions itself
// against:
//
//  * ConflictRationingPolicy — Kraska et al., "Consistency rationing in the
//    cloud" (VLDB'09): compute the probability of an update conflict and
//    switch between strong and weak consistency against a threshold. The
//    paper's critique: conflicts, not staleness, drive the decision.
//  * ReadWriteRatioPolicy — Wang et al. (GCC'10): choose strong vs eventual
//    consistency by comparing the read/write rate balance to a *static*
//    threshold. The paper's critique: the threshold is arbitrary and static.
#pragma once

#include <cstdint>
#include <string>

#include "workload/policy.h"

namespace harmony::core {

/// Kraska-style consistency rationing. With Poisson updates at rate λw, the
/// probability that an update collides with another inside the window w is
/// P(conflict) = 1 − e^(−λw·w)·(1 + λw·w) (two or more arrivals in w). The
/// window is the monitored propagation window Tp: two updates inside it (and
/// before propagation finishes) conflict. Above a 5% conflict probability
/// the policy reads and writes at quorum; below it, at ONE.
class ConflictRationingPolicy final : public policy::ConsistencyPolicy {
 public:
  explicit ConflictRationingPolicy(int rf);

  cluster::ReplicaRequirement read_requirement() const override;
  cluster::ReplicaRequirement write_requirement() const override;
  void tick(const monitor::SystemState& state) override;
  std::string name() const override { return "conflict-rationing"; }
  std::uint64_t switches() const override { return switches_; }

  bool strong() const { return strong_; }
  double last_conflict_probability() const { return p_conflict_; }

 private:
  int rf_;
  bool strong_ = false;
  double p_conflict_ = 0;
  std::uint64_t switches_ = 0;
};

/// Wang-style static threshold: reads at ALL when write_rate / (read_rate +
/// write_rate) exceeds 30% (frequent writes => more inconsistency windows),
/// else at ONE. Writes always wait for one ack.
class ReadWriteRatioPolicy final : public policy::ConsistencyPolicy {
 public:
  explicit ReadWriteRatioPolicy(int rf);

  cluster::ReplicaRequirement read_requirement() const override;
  cluster::ReplicaRequirement write_requirement() const override;
  void tick(const monitor::SystemState& state) override;
  std::string name() const override { return "rw-ratio"; }
  std::uint64_t switches() const override { return switches_; }

  bool strong() const { return strong_; }

 private:
  int rf_;
  bool strong_ = false;
  std::uint64_t switches_ = 0;
};

policy::PolicyFactory conflict_rationing_policy();
policy::PolicyFactory rw_ratio_policy();

}  // namespace harmony::core
