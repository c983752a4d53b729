#include "workload/spec.h"

#include <cmath>

#include "common/check.h"

namespace harmony::workload {

std::string to_string(OpType t) {
  switch (t) {
    case OpType::kRead: return "read";
    case OpType::kUpdate: return "update";
    case OpType::kInsert: return "insert";
    case OpType::kReadModifyWrite: return "rmw";
  }
  return "?";
}

std::string to_string(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kSelfSimilar: return "self-similar";
  }
  return "?";
}

std::string to_string(RateCurve c) {
  switch (c) {
    case RateCurve::kConstant: return "constant";
    case RateCurve::kDiurnal: return "diurnal";
    case RateCurve::kFlashCrowd: return "flash-crowd";
  }
  return "?";
}

void OpenLoopSpec::validate() const {
  if (!enabled) return;
  HARMONY_CHECK(rate_per_s > 0);
  HARMONY_CHECK(duration > 0);
  HARMONY_CHECK(drain_grace >= 0);
  HARMONY_CHECK(diurnal_period > 0);
  HARMONY_CHECK_MSG(diurnal_amplitude >= 0 && diurnal_amplitude < 1,
                    "diurnal amplitude must keep lambda(t) > 0");
  HARMONY_CHECK(flash_ramp > 0);
  HARMONY_CHECK(flash_hold >= 0);
  HARMONY_CHECK(flash_multiplier >= 1.0);
  HARMONY_CHECK_MSG(pareto_alpha > 1.0 && pareto_alpha <= 2.0,
                    "pareto_alpha in (1,2]: alpha <= 1 has no finite mean");
  HARMONY_CHECK(user_count > 0);
  HARMONY_CHECK(user_zipf_theta > 0 && user_zipf_theta < 1);
  HARMONY_CHECK(user_affinity >= 0 && user_affinity <= 1);
  HARMONY_CHECK(max_in_flight_per_dc > 0);
  HARMONY_CHECK(queue_capacity_per_dc > 0);
  HARMONY_CHECK(sla_latency > 0);
}

void WorkloadSpec::validate() const {
  HARMONY_CHECK(record_count > 0);
  HARMONY_CHECK(op_count > 0);
  HARMONY_CHECK(value_size > 0);
  HARMONY_CHECK(clients_per_dc > 0);
  const double total = read_proportion + update_proportion +
                       insert_proportion + rmw_proportion;
  HARMONY_CHECK_MSG(std::abs(total - 1.0) < 1e-9,
                    "operation proportions must sum to 1");
  open_loop.validate();
}

WorkloadSpec WorkloadSpec::ycsb_a() {
  WorkloadSpec s;
  s.name = "ycsb-a";
  s.read_proportion = 0.5;
  s.update_proportion = 0.5;
  s.request_dist.kind = KeyDistributionKind::kScrambledZipfian;
  return s;
}

WorkloadSpec WorkloadSpec::ycsb_b() {
  WorkloadSpec s;
  s.name = "ycsb-b";
  s.read_proportion = 0.95;
  s.update_proportion = 0.05;
  s.request_dist.kind = KeyDistributionKind::kScrambledZipfian;
  return s;
}

WorkloadSpec WorkloadSpec::heavy_read_update() {
  WorkloadSpec s;
  s.name = "heavy-read-update";
  s.read_proportion = 0.6;
  s.update_proportion = 0.4;
  // Plain (unscrambled) zipfian concentrates writes on a compact hot set,
  // matching the paper's observation of very high stale rates under load.
  s.request_dist.kind = KeyDistributionKind::kZipfian;
  s.request_dist.zipf_theta = 0.99;
  return s;
}

}  // namespace harmony::workload
