#include "core/freshness_sla.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace harmony::core {

namespace {
/// Writes wait for one ack; the policy tunes the read side only.
constexpr int kWriteAcks = 1;
}  // namespace

FreshnessSlaPolicy::FreshnessSlaPolicy(FreshnessSlaOptions options, int rf)
    : opt_(options), rf_(rf) {
  HARMONY_CHECK(rf >= 1);
  HARMONY_CHECK(opt_.deadline >= 0);
  HARMONY_CHECK(opt_.epsilon >= 0 && opt_.epsilon <= 1);
}

cluster::ReplicaRequirement FreshnessSlaPolicy::read_requirement() const {
  return cluster::resolve_count(k_, rf_);
}

cluster::ReplicaRequirement FreshnessSlaPolicy::write_requirement() const {
  return cluster::resolve_count(kWriteAcks, rf_);
}

void FreshnessSlaPolicy::tick(const monitor::SystemState& state) {
  StaleModelParams params;
  params.lambda_w = state.write_rate;
  params.prop_delays_us = state.prop_delays_us;
  params.write_acks = kWriteAcks;
  // Only writes to keys a read may target contend: the monitor's measured
  // key-collision index.
  params.contention = std::clamp(state.key_collision, 0.0, 1.0);
  while (params.prop_delays_us.size() < static_cast<std::size_t>(rf_) &&
         !params.prop_delays_us.empty()) {
    params.prop_delays_us.push_back(params.prop_delays_us.back());
  }
  const StaleReadModel model(std::move(params));
  if (model.replica_count() == 0) return;

  const auto deadline_us = static_cast<double>(opt_.deadline);
  int target = rf_;
  for (int k = 1; k <= model.replica_count(); ++k) {
    if (model.p_stale_older_than(k, deadline_us) <= opt_.epsilon) {
      target = k;
      break;
    }
  }
  target = std::clamp(target, 1, rf_);
  if (target != k_) {
    k_ = target;
    ++switches_;
  }
  const int kk = std::min(k_, model.replica_count());
  est_violation_ = model.p_stale_older_than(kk, deadline_us);
  expected_age_us_ = model.expected_stale_age_us(kk);
}

std::string FreshnessSlaPolicy::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "freshness(%s,%.1f%%)",
                format_duration(opt_.deadline).c_str(), opt_.epsilon * 100.0);
  return buf;
}

policy::PolicyFactory freshness_sla_policy(FreshnessSlaOptions options) {
  return [options](const policy::PolicyInit& init) {
    return std::make_unique<FreshnessSlaPolicy>(options, init.rf);
  };
}

}  // namespace harmony::core
