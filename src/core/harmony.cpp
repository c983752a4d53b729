#include "core/harmony.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace harmony::core {

namespace {
constexpr int kWriteAcks = 1;
}  // namespace

HarmonyController::HarmonyController(HarmonyOptions options, int rf)
    : opt_(options), rf_(rf) {
  HARMONY_CHECK(opt_.tolerance >= 0 && opt_.tolerance <= 1);
  HARMONY_CHECK(opt_.contention <= 1);
  HARMONY_CHECK(rf >= 1);
}

cluster::ReplicaRequirement HarmonyController::read_requirement() const {
  return cluster::resolve_count(k_, rf_);
}

cluster::ReplicaRequirement HarmonyController::write_requirement() const {
  return cluster::resolve_count(kWriteAcks, rf_);
}

void HarmonyController::tick(const monitor::SystemState& state) {
  // No propagation observations yet: stay optimistic at ONE (the paper's
  // "basic consistency level"), exactly what an empty estimator yields.
  StaleModelParams params;
  params.lambda_w = state.write_rate;
  params.prop_delays_us = state.prop_delays_us;
  params.write_acks = kWriteAcks;
  params.contention = opt_.contention < 0
                          ? std::clamp(state.key_collision, 0.0, 1.0)
                          : opt_.contention;
  // The monitor may briefly report fewer order statistics than rf (writes
  // still propagating at attach time); pad with the worst observed delay so
  // the model sees the full replica count.
  while (params.prop_delays_us.size() < static_cast<std::size_t>(rf_) &&
         !params.prop_delays_us.empty()) {
    params.prop_delays_us.push_back(params.prop_delays_us.back());
  }
  const StaleReadModel model(std::move(params));

  int target;
  if (model.replica_count() == 0) {
    target = 1;
    est_one_ = 0;
  } else {
    est_one_ = model.p_stale(1);
    target = est_one_ <= opt_.tolerance ? 1
                                        : model.min_replicas_for(opt_.tolerance);
  }

  target = std::clamp(target, 1, rf_);

  if (target != k_) {
    // Cooldown never blocks the first change (there is nothing to flap from).
    const bool held = switches_ > 0 && opt_.cooldown > 0 &&
                      state.now - last_switch_ < opt_.cooldown;
    if (!held) {
      k_ = target;
      last_switch_ = state.now;
      ++switches_;
    }
  }
  est_current_ = model.replica_count() == 0
                     ? 0.0
                     : model.p_stale(std::min(k_, model.replica_count()));
}

std::string HarmonyController::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "harmony(%.0f%%)", opt_.tolerance * 100.0);
  return buf;
}

policy::PolicyFactory harmony_policy(HarmonyOptions options) {
  return [options](const policy::PolicyInit& init) {
    return std::make_unique<HarmonyController>(options, init.rf);
  };
}

policy::PolicyFactory harmony_policy(double tolerance) {
  HarmonyOptions o;
  o.tolerance = tolerance;
  return harmony_policy(o);
}

}  // namespace harmony::core
