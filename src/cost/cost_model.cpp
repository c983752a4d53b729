#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace harmony::cost {

ConsistencyCostEfficiency::ConsistencyCostEfficiency(CostWeights weights,
                                                     double alpha)
    : weights_(weights), alpha_(alpha) {
  HARMONY_CHECK(alpha > 0);
  const double sum = weights.instances + weights.network + weights.storage;
  HARMONY_CHECK_MSG(sum > 0, "cost weights must have positive sum");
}

std::vector<EfficiencyPoint> ConsistencyCostEfficiency::evaluate(
    const std::vector<LevelEstimate>& levels) const {
  HARMONY_CHECK(!levels.empty());
  // Baseline = the weakest level present (smallest k).
  const LevelEstimate* base = &levels.front();
  for (const auto& l : levels) {
    if (l.replicas < base->replicas) base = &l;
  }
  const double base_latency =
      std::max(1.0, base->read_latency_us * 0.5 + base->write_latency_us * 0.5);
  const double base_bytes = std::max(1.0, base->cross_dc_bytes_per_op);
  const double wsum = weights_.instances + weights_.network + weights_.storage;

  std::vector<EfficiencyPoint> out;
  out.reserve(levels.size());
  for (const auto& l : levels) {
    EfficiencyPoint p;
    p.replicas = l.replicas;
    p.consistency = std::clamp(1.0 - l.p_stale, 0.0, 1.0);
    const double latency =
        std::max(1.0, l.read_latency_us * 0.5 + l.write_latency_us * 0.5);
    const double bytes = std::max(1.0, l.cross_dc_bytes_per_op);
    p.relative_cost = (weights_.instances * (latency / base_latency) +
                       weights_.network * (bytes / base_bytes) +
                       weights_.storage * 1.0) /
                      wsum;
    p.efficiency = std::pow(p.consistency, alpha_) / p.relative_cost;
    out.push_back(p);
  }
  return out;
}

double expected_cross_dc_bytes_per_op(double read_fraction, int k, int rf,
                                      int local_rf, double value_bytes,
                                      double header_bytes,
                                      double digest_size) {
  HARMONY_CHECK(k >= 1 && k <= rf);
  HARMONY_CHECK(local_rf >= 0 && local_rf <= rf);
  const double write_fraction = 1.0 - read_fraction;
  // Writes always ship the mutation to every remote replica (+ acks).
  const int remote_replicas = rf - local_rf;
  const double write_bytes =
      remote_replicas * (value_bytes + 2.0 * header_bytes);
  // Reads contact remote replicas only when k exceeds the local replica set;
  // those remote contacts are digest-sized.
  const int remote_contacts = std::max(0, k - local_rf);
  const double read_bytes =
      remote_contacts * (digest_size + 2.0 * header_bytes);
  return read_fraction * read_bytes + write_fraction * write_bytes;
}

}  // namespace harmony::cost
