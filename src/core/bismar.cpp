#include "core/bismar.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "common/check.h"

namespace harmony::core {

BismarController::BismarController(BismarOptions options, int rf, int local_rf)
    : opt_(options), rf_(rf), local_rf_(local_rf) {
  HARMONY_CHECK(rf >= 1);
  HARMONY_CHECK(local_rf >= 0 && local_rf <= rf);
  HARMONY_CHECK(opt_.write_acks >= 1 && opt_.write_acks <= rf);
}

cluster::ReplicaRequirement BismarController::read_requirement() const {
  return cluster::resolve_count(k_, rf_);
}

cluster::ReplicaRequirement BismarController::write_requirement() const {
  return cluster::resolve_count(opt_.write_acks, rf_);
}

void BismarController::tick(const monitor::SystemState& state) {
  // Consistency side: the shared stale-read estimator.
  StaleModelParams params;
  params.lambda_w = state.write_rate;
  params.prop_delays_us = state.prop_delays_us;
  params.write_acks = opt_.write_acks;
  params.contention = opt_.contention < 0
                          ? std::clamp(state.key_collision, 0.0, 1.0)
                          : opt_.contention;
  params.read_offset_us =
      std::max(0.0, opt_.read_offset_factor * state.replica_rtt_local_us);
  while (params.prop_delays_us.size() < static_cast<std::size_t>(rf_) &&
         !params.prop_delays_us.empty()) {
    params.prop_delays_us.push_back(params.prop_delays_us.back());
  }
  const StaleReadModel model(std::move(params));
  if (model.replica_count() == 0) return;  // nothing observed yet: hold

  const double total_rate = state.read_rate + state.write_rate;
  const double read_fraction = total_rate > 0
                                   ? state.read_rate / total_rate
                                   : opt_.default_read_fraction;

  std::vector<cost::LevelEstimate> levels;
  levels.reserve(static_cast<std::size_t>(rf_));
  for (int k = 1; k <= rf_; ++k) {
    cost::LevelEstimate e;
    e.replicas = k;
    e.p_stale = model.p_stale(std::min(k, model.replica_count()));
    const auto idx = static_cast<std::size_t>(k - 1);
    e.read_latency_us = idx < state.est_read_latency_by_k_us.size()
                            ? state.est_read_latency_by_k_us[idx]
                            : 0.0;
    e.write_latency_us = idx < state.est_write_latency_by_k_us.size()
                             ? state.est_write_latency_by_k_us[idx]
                             : 0.0;
    e.cross_dc_bytes_per_op = cost::expected_cross_dc_bytes_per_op(
        read_fraction, k, rf_, local_rf_, opt_.value_bytes,
        cluster::kMessageOverheadBytes, cluster::kDigestBytes);
    levels.push_back(e);
  }

  const cost::ConsistencyCostEfficiency metric(opt_.weights, opt_.alpha);
  ranking_ = metric.evaluate(levels);
  std::size_t best = 0;
  for (std::size_t i = 1; i < ranking_.size(); ++i) {
    if (ranking_[i].efficiency > ranking_[best].efficiency) best = i;
  }
  const int target = ranking_[best].replicas;

  if (target != k_) {
    // Cooldown never blocks the first change (there is nothing to flap from).
    if (switches_ > 0 && opt_.cooldown > 0 &&
        state.now - last_switch_ < opt_.cooldown) {
      return;
    }
    k_ = target;
    last_switch_ = state.now;
    ++switches_;
  }
}

policy::PolicyFactory bismar_policy(BismarOptions options) {
  return [options](const policy::PolicyInit& init) {
    return std::make_unique<BismarController>(options, init.rf, init.local_rf);
  };
}

}  // namespace harmony::core
