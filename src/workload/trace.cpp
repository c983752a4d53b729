#include "workload/trace.h"

#include "common/check.h"

namespace harmony::workload {

Trace generate_phased_trace(const std::vector<TracePhase>& phases,
                            std::uint64_t seed) {
  HARMONY_CHECK(!phases.empty());
  Rng rng(seed);
  Trace trace;
  SimTime t = 0;
  for (const auto& phase : phases) {
    HARMONY_CHECK(phase.ops_per_second > 0);
    HARMONY_CHECK(phase.duration > 0);
    auto dist = phase.dist.build(phase.key_space);
    const SimTime phase_end = t + phase.duration;
    const double mean_gap_us = 1e6 / phase.ops_per_second;
    SimTime now = t;
    while (true) {
      now += static_cast<SimTime>(rng.exponential(mean_gap_us)) + 1;
      if (now >= phase_end) break;
      TraceRecord r;
      r.time = now;
      r.op = rng.chance(phase.read_fraction) ? OpType::kRead : OpType::kUpdate;
      r.key = dist->next(rng);
      r.value_size = phase.value_size;
      trace.records.push_back(r);
    }
    t = phase_end;
  }
  return trace;
}

std::vector<TracePhase> webshop_day_phases() {
  std::vector<TracePhase> phases(3);

  phases[0].label = "browse";
  phases[0].duration = 120 * kSecond;
  phases[0].ops_per_second = 800;
  phases[0].read_fraction = 0.97;
  phases[0].dist.kind = KeyDistributionKind::kScrambledZipfian;

  phases[1].label = "flash-sale";
  phases[1].duration = 60 * kSecond;
  phases[1].ops_per_second = 4000;
  phases[1].read_fraction = 0.55;
  phases[1].dist.kind = KeyDistributionKind::kZipfian;

  phases[2].label = "reporting";
  phases[2].duration = 90 * kSecond;
  phases[2].ops_per_second = 400;
  phases[2].read_fraction = 0.999;
  phases[2].dist.kind = KeyDistributionKind::kUniform;

  return phases;
}

}  // namespace harmony::workload
