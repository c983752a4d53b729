// The experiment harness: cluster + clients + monitor + policy + bill in one
// call. Every test, example and paper-reproduction bench goes through
// run_experiment(), so all of them measure the same way.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include <memory>

#include "cluster/cluster.h"
#include "common/histogram.h"
#include "cost/billing.h"
#include "cost/energy.h"
#include "monitor/monitor.h"
#include "workload/open_loop.h"
#include "workload/policy.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace harmony::workload {

struct RunConfig {
  std::string label = "run";
  cluster::ClusterConfig cluster{};
  WorkloadSpec workload{};
  policy::PolicyFactory policy;  ///< required
  monitor::MonitorConfig monitor{};
  /// How often the policy is re-ticked with a fresh monitoring snapshot.
  /// 0 = never retune: the policy keeps its initial levels. Must be >= 0.
  SimDuration policy_tick = 500 * kMillisecond;
  /// Simulated warm-up; measurements (latency/staleness/throughput) reset at
  /// this point. Billing covers the whole run, as a real bill would. Must be
  /// >= 0.
  SimDuration warmup = 2 * kSecond;
  std::uint64_t seed = 1;
  cost::PriceBook price_book = cost::PriceBook::ec2_2012();
  cost::PowerModel power{};
  /// Record every issued operation into RunResult::trace — the "past access
  /// trace" input of the behavior-modeling pipeline (§III-C). Costs memory
  /// proportional to op_count; off by default.
  bool record_trace = false;

  /// Sharded execution (the parallel perf path; see sim/shard.h and
  /// docs/INVARIANTS.md "Cross-shard determinism"): > 0 partitions the
  /// simulation into shards_per_dc event shards per DC driven by this many
  /// worker threads. Any thread count reproduces the same (time, seq)
  /// merge, and `1` runs it merged-serial on the calling thread. Requires
  /// cluster.latency.cross_dc.floor > 0 — and, with shards_per_dc > 1, also
  /// positive same_rack/same_dc floors: the conservative lookahead is the
  /// minimum over every floor a cross-shard hop can ride.
  ///
  /// Every run keeps its workload state in per-shard lanes (one lane in a
  /// one-shard run), feeds the monitor through Cluster::record_*, and
  /// retunes the policy on fenced timer instants, so sharding changes
  /// neither op timestamps nor the tick grid. What remains different under
  /// shard_count > 1 (each deterministic across thread counts):
  ///   * per-read ReadResult::stale stays false (the deferred oracle judges
  ///     at barriers); staleness counters come from the oracle's whole-run
  ///     aggregates;
  ///   * client DC re-routing is rejected (coordinators must stay in the
  ///     request's shard).
  /// 0 (default) = the default one-shard kernel on the calling thread.
  unsigned num_shard_threads = 0;

  /// Key-range shards per DC (sharded runs only; ignored when
  /// num_shard_threads == 0). 1 (default) keeps the legacy one-shard-per-DC
  /// layout. With S > 1 every DC's token space splits into S contiguous
  /// ranges (cluster/shard_map.h): each shard owns the nodes dealt to it,
  /// the keys hashing into its range, and a full workload lane (clients or
  /// an open-loop source, RNG fork, key distribution clone, insert lane) —
  /// that is how a single-DC topology scales past one worker thread.
  /// Requires every DC to have >= shards_per_dc nodes.
  unsigned shards_per_dc = 1;

  /// Scheduled failure injection: kill/revive nodes mid-run (availability
  /// experiments; revival replays hints). Each entry is scheduled as a
  /// kKillNode / kReviveNode FaultSpec, ahead of `fault_schedule`.
  struct FaultEvent {
    SimTime at = 0;
    net::NodeId node = 0;
    bool kill = true;  ///< false = revive
  };
  std::vector<FaultEvent> faults;

  /// Full fault schedule (kill/revive, DC blackout/restore, link degradation
  /// windows), driven off the typed event lane via Cluster::schedule_fault —
  /// every scenario replays bit-identically from the seed. Subsumes `faults`,
  /// which is kept for the node-kill-only legacy call sites.
  std::vector<cluster::FaultSpec> fault_schedule;
};

struct RunResult {
  std::string label;
  std::string policy_name;

  // ---- volume (post-warmup) ----------------------------------------------
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t errors = 0;  ///< timed-out or unavailable operations

  // ---- performance (post-warmup) -----------------------------------------
  double duration_s = 0;   ///< measured window (warmup end -> last op)
  double throughput = 0;   ///< ops/s over the measured window
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;

  // ---- consistency (post-warmup) ------------------------------------------
  std::uint64_t stale_reads = 0;
  std::uint64_t fresh_reads = 0;
  double stale_fraction = 0;
  LatencyHistogram staleness_age;  ///< over stale reads only

  // ---- adaptivity ----------------------------------------------------------
  std::map<int, std::uint64_t> read_level_usage;  ///< replicas-waited -> reads
  double avg_read_replicas = 0;
  std::uint64_t policy_switches = 0;

  // ---- cost (whole run) ----------------------------------------------------
  cost::ResourceUsage usage;
  cost::Bill bill;
  double energy_kwh = 0;

  // ---- monitoring -----------------------------------------------------------
  /// The monitor's view at the end of the run (propagation profile, rates,
  /// behavior features). Benches use it for paper-style model estimates.
  monitor::SystemState final_state;
  /// Issued-operation trace (only when RunConfig::record_trace).
  std::shared_ptr<Trace> trace;

  // ---- substrate ------------------------------------------------------------
  net::NetStats net;
  std::uint64_t timeouts = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t sim_events = 0;
  /// Cross-shard mailbox slab overflows (sharded runs; 0 serial). Nonzero
  /// means cluster.sharded_slot_reserve-style tuning of
  /// Simulation::configure_shards mailbox_capacity may help throughput.
  std::uint64_t mailbox_spills = 0;
  double total_sim_s = 0;  ///< simulated seconds, including warmup

  // ---- resilience SLA metrics (whole run) ----------------------------------
  // `timeouts` above counts only requests that exhausted every attempt; a
  // request rescued by a retry or hedge shows up in `retries`/`hedge_wins`
  // instead of being double-counted as a timeout.
  // ---- open-loop overload ledger (whole run) --------------------------------
  /// Populated only when WorkloadSpec::open_loop.enabled: the explicit
  /// arrivals / sheds / in-flight accounting of the open-loop engine.
  OpenLoopResult open_loop;

  std::uint64_t retries = 0;           ///< coordinator read retry attempts
  std::uint64_t hedges_fired = 0;      ///< speculative backup reads sent
  std::uint64_t hedge_wins = 0;        ///< hedge legs that completed the read
  std::uint64_t sheds = 0;             ///< requests rejected by admission
  std::uint64_t client_shed_retries = 0;  ///< client re-issues after a shed
  std::uint64_t rerouted_ops = 0;      ///< ops routed to a non-home DC

  /// One-line summary for logs.
  std::string summary() const;
};

/// Run one experiment to completion. Deterministic in cfg.seed.
RunResult run_experiment(const RunConfig& cfg);

}  // namespace harmony::workload
