// Bismar's expected relative-cost model and the consistency-cost efficiency
// metric (paper §III-B).
//
// Bismar needs, for every candidate consistency level, the *relative* expected
// cost of running the workload at that level — relative to level ONE, because
// only ratios matter for an argmax. The model reconstructs the paper's
// three-part bill from monitored quantities:
//
//   relcost(l) = w_i * L(l)/L(ONE)            instances: a closed-loop client
//                                             finishes a fixed op budget in
//                                             time proportional to op latency
//              + w_n * X(l)/X(ONE)            network: cross-DC bytes per op
//              + w_s * 1                      storage: level-independent
//
// with weights w_* the bill shares of each part (defaults follow the paper's
// EC2 measurements, where instances dominate). The efficiency metric is
//
//   eff(l) = consistency(l)^alpha / relcost(l),   consistency(l) = 1 - P_stale
//
// alpha > 1 encodes that consistency losses hurt superlinearly; with the
// default alpha=2 the published behaviour emerges (levels with < 20% stale
// reads are the efficient ones; ONE stops winning once it gets very stale).
#pragma once

#include <string>
#include <vector>

namespace harmony::cost {

struct CostWeights {
  double instances = 0.75;
  double network = 0.10;
  double storage = 0.15;
};

/// Per-level inputs gathered from the monitor + stale-read model.
struct LevelEstimate {
  int replicas = 1;            ///< k: replicas a read waits for
  double read_latency_us = 0;  ///< E[client read latency] at k
  double write_latency_us = 0; ///< E[client write latency] at matching acks
  double cross_dc_bytes_per_op = 0;
  double p_stale = 0;          ///< estimated stale-read probability
};

struct EfficiencyPoint {
  int replicas = 1;
  double consistency = 1;  ///< 1 - p_stale
  double relative_cost = 1;
  double efficiency = 1;
};

class ConsistencyCostEfficiency {
 public:
  explicit ConsistencyCostEfficiency(CostWeights weights = {}, double alpha = 2.0);

  /// Rank all candidate levels. `levels` must contain the baseline (k=1)
  /// entry; costs are normalized against it.
  std::vector<EfficiencyPoint> evaluate(const std::vector<LevelEstimate>& levels) const;

  double alpha() const { return alpha_; }
  const CostWeights& weights() const { return weights_; }

 private:
  CostWeights weights_;
  double alpha_;
};

/// Analytic cross-DC bytes per operation at read-replica-count k, used when
/// byte-level measurement per level is unavailable (levels not yet explored).
/// Mirrors the simulator's message accounting.
double expected_cross_dc_bytes_per_op(double read_fraction, int k, int rf,
                                      int local_rf, double value_bytes,
                                      double header_bytes, double digest_size);

}  // namespace harmony::cost
