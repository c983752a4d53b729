// YCSB-compatible workload specification.
//
// The paper drives every experiment with YCSB ("heavy read-update workload",
// 3M/5M/10M operations). The spec mirrors YCSB's core properties: operation
// mix, request distribution, record count and value size, plus the client
// shape (closed-loop clients per DC, optional per-client target rate).
// Workload E (scans) is intentionally unsupported: none of the paper's
// experiments use scans, and Cassandra-range-scan semantics would not change
// any measured quantity here.
#pragma once

#include <cstdint>
#include <string>

#include "common/distributions.h"
#include "common/time_types.h"

namespace harmony::workload {

enum class OpType : std::uint8_t { kRead, kUpdate, kInsert, kReadModifyWrite };

std::string to_string(OpType t);

// ---- open-loop traffic (see workload/open_loop.h) ---------------------------

/// Arrival-process family for the open-loop engine.
enum class ArrivalProcess : std::uint8_t {
  kPoisson,      ///< exponential inter-arrival gaps (memoryless)
  kSelfSimilar,  ///< Pareto(alpha) gaps: heavy-tailed burst trains
};

/// Time-varying arrival-rate envelope lambda(t).
enum class RateCurve : std::uint8_t {
  kConstant,    ///< lambda(t) = rate
  kDiurnal,     ///< rate * (1 + 0.5 * sin(2*pi*t/period))
  kFlashCrowd,  ///< rate, ramping to rate*8 at flash_at and back down
};

std::string to_string(ArrivalProcess p);
std::string to_string(RateCurve c);

/// Open-loop traffic engine configuration. When `enabled`, the runner replaces
/// the closed-loop clients with one OpenLoopSource per client-hosting DC:
/// arrivals are generated by the configured process at lambda(t) over the
/// whole `duration`, *independently of outstanding completions*, and latency
/// is measured from the intended arrival time — the coordinated-omission fix.
/// Overload is explicit instead of an implicit closed-loop slowdown: arrivals
/// beyond `max_in_flight_per_dc` wait in a bounded FIFO (queueing delay is
/// recorded) and are shed once `queue_capacity_per_dc` is full. SLA
/// attainment counts ok completions within 100 ms of intended arrival.
struct OpenLoopSpec {
  bool enabled = false;

  ArrivalProcess process = ArrivalProcess::kPoisson;
  RateCurve curve = RateCurve::kConstant;
  /// Aggregate intended arrival rate (ops/s) summed over client-hosting DCs.
  double rate_per_s = 10'000;
  /// Arrivals are generated for t in [0, duration); the run then drains (or
  /// is cut at the horizon, leaving an explicit in-flight/queued remainder).
  SimDuration duration = 20 * kSecond;
  /// Extra simulated time after `duration` for in-flight work to drain
  /// before the run is cut off and the remainder ledgered.
  SimDuration drain_grace = 5 * kSecond;

  // kDiurnal parameter: lambda swings ±50% around rate over one period.
  SimDuration diurnal_period = 60 * kSecond;  ///< one simulated "day"

  // kFlashCrowd parameters: lambda ramps linearly over `flash_ramp` to
  // rate*8 at flash_at, holds for `flash_hold`, decays back.
  SimTime flash_at = 10 * kSecond;
  SimDuration flash_ramp = 2 * kSecond;
  SimDuration flash_hold = 5 * kSecond;

  /// kSelfSimilar: Pareto tail index of the inter-arrival gaps, in (1, 2].
  /// Lower = burstier (infinite variance for alpha < 2, mean kept = 1/rate).
  double pareto_alpha = 1.5;

  /// Simulated user population. Each arrival is attributed to a user drawn
  /// scrambled-Zipfian(user_zipf_theta) over [0, user_count): a heavy-tailed
  /// few users generate most traffic. Half the operations target the user's
  /// own profile key (hot users => hot keys); the other half take their key
  /// from the workload's request distribution.
  std::uint64_t user_count = 1'000'000;
  double user_zipf_theta = 0.99;

  /// Explicit overload bounds (bounded memory; no implicit backpressure).
  std::uint32_t max_in_flight_per_dc = 8192;
  std::uint32_t queue_capacity_per_dc = 16384;

  void validate() const;
};

struct WorkloadSpec {
  std::uint64_t record_count = 100'000;
  std::uint32_t value_size = 1024;  ///< YCSB default record (10 x 100B fields)
  std::uint64_t op_count = 100'000;

  double read_proportion = 0.5;
  double update_proportion = 0.5;
  double insert_proportion = 0.0;
  double rmw_proportion = 0.0;

  KeyDistributionSpec request_dist{};

  int clients_per_dc = 32;
  /// Per-client op rate cap (ops/s). 0 = unthrottled closed loop.
  double target_rate_per_client = 0.0;
  /// Confine clients to one DC (-1 = clients in every DC). Models an app
  /// tier homed in a single region reading from replicas spread across
  /// regions — the setup where hedged reads target *remote* replicas.
  int client_dc = -1;

  /// Open-loop traffic engine (workload/open_loop.h). When enabled, replaces
  /// the closed-loop clients: `op_count` is ignored and `open_loop.duration`
  /// bounds the run instead.
  OpenLoopSpec open_loop{};

  /// DC failover: when a client's home DC has no alive node, route the
  /// operation to the next alive DC instead (cross-DC client link). Off by
  /// default — without it, ops against a blacked-out DC go unavailable.
  bool reroute_on_dc_outage = false;
  /// How many times a client re-issues an admission-shed operation (honoring
  /// the coordinator's retry-after plus a small jitter) before giving up.
  int shed_retry_limit = 8;

  void validate() const;

  // ---- presets -----------------------------------------------------------
  // The mixes the benches and examples run. Insert and read-modify-write
  // traffic comes from setting insert_proportion / rmw_proportion on one of
  // them.
  static WorkloadSpec ycsb_a();  ///< update heavy: 50/50 read/update, zipfian
  static WorkloadSpec ycsb_b();  ///< read mostly: 95/5
  /// The paper's experiment workload: an intensive read+update mix on a
  /// zipfian-hot key space (§IV "heavy read-update workload").
  static WorkloadSpec heavy_read_update();
};

}  // namespace harmony::workload
