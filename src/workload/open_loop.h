// Open-loop traffic engine: arrivals independent of completions.
//
// The closed-loop Client issues its next operation only after the previous
// one completes, so under saturation queueing delay is silently absorbed as
// reduced offered load — the coordinated-omission measurement bug: every
// latency figure at the interesting (overloaded) operating points comes out
// optimistic. An OpenLoopSource instead generates *intended arrivals* from a
// configured stochastic process (Poisson or heavy-tailed self-similar gaps,
// modulated by constant / diurnal / flash-crowd rate curves) over the whole
// run, regardless of outstanding completions, and measures every operation
// from its intended arrival time.
//
// Overload is explicit instead of implicit:
//   * up to `max_in_flight_per_dc` operations are in the cluster at once
//     (bounded memory — this is a connection-pool model, not backpressure);
//   * arrivals beyond that wait in a bounded FIFO ring; the wait is recorded
//     in the queueing-delay histogram and included in end-to-end latency;
//   * arrivals that find the ring full are shed and ledgered, never silently
//     absorbed.
// The ledger is conservative by construction:
//   arrivals == completed + shed_queue_full + queued_at_end + in_flight_at_end
// which tests assert exactly (see tests/test_open_loop.cpp).
//
// One source per client-hosting DC, or one per key-range shard of the single
// DC in a sharded run. Every piece of mutable state is owned by the source
// and only touched from its event shard (arrival events carry the shard id;
// the cluster delivers completion callbacks on the same shard), so sharded
// runs (RunConfig::num_shard_threads) reproduce the serial merge bit for bit
// — the same contract as the closed-loop clients.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "workload/client.h"

namespace harmony::workload {

/// Whole-run open-loop accounting, aggregated over sources by the runner.
/// Latency/throughput live in the usual RunResult fields (recorded from
/// intended arrival time); this struct carries the overload semantics.
struct OpenLoopResult {
  std::uint64_t arrivals = 0;   ///< intended arrivals generated
  std::uint64_t issued = 0;     ///< operations handed to the cluster
  std::uint64_t completed = 0;  ///< cluster callbacks fired (ok or failed)
  std::uint64_t failed = 0;     ///< completed with ok=false (timeout /
                                ///< unavailable / admission shed)
  std::uint64_t shed_admission = 0;   ///< subset of failed: admission sheds
  std::uint64_t shed_queue_full = 0;  ///< dropped: client FIFO at capacity
  std::uint64_t queued_at_end = 0;    ///< still waiting when the run was cut
  std::uint64_t in_flight_at_end = 0; ///< still in the cluster at the cut
  /// SLA attainment over the measured window: ok completions within 100 ms
  /// of *intended* arrival, over completions + queue sheds.
  std::uint64_t sla_ok = 0;
  std::uint64_t sla_total = 0;
  double sla_attainment = 0;
  /// Intended arrival rate actually generated (arrivals / generation span).
  double offered_rate = 0;
  /// Client-side wait between intended arrival and cluster issue (measured
  /// window only; 0 for arrivals that found a free in-flight slot).
  LatencyHistogram queueing_delay;
};

/// Open-loop traffic source for one DC. Created by the runner when
/// WorkloadSpec::open_loop.enabled; see the file comment for semantics.
class OpenLoopSource {
 public:
  /// `rate_per_s` is this source's share of OpenLoopSpec::rate_per_s.
  /// `insert_lane`/`insert_stride` give the source its interleaved insert-key
  /// lane (record_count + lane + n*stride) so sources never contend for a
  /// key counter.
  /// `keys` is this source's private request distribution (clone per source);
  /// `users` is copied (the copy shares the already-computed zeta constants).
  /// `shard` is the event shard the source's whole loop runs on — under
  /// key-range sharding one source exists per shard of the single DC, and
  /// draw_op() keeps only keys that shard owns (rejection sampling; inserts
  /// are serial-only); 0 in a one-shard run.
  OpenLoopSource(ClientEnv& env, net::DcId dc, const WorkloadSpec& spec,
                 double rate_per_s, std::uint64_t insert_lane,
                 std::uint64_t insert_stride, Rng rng,
                 std::unique_ptr<KeyDistribution> keys,
                 const ScrambledZipfianKeys& users, std::uint8_t shard = 0);

  /// Register the workload dispatcher and schedule the first arrival.
  void start();

  /// Flip post-warmup measurement (latency / queueing / SLA tallies; the
  /// conservation ledger always covers the whole run).
  void set_measuring(bool on) { measuring_ = on; }

  net::DcId dc() const { return dc_; }
  /// The event shard this source's loop runs on (0 unsharded).
  std::uint8_t shard() const { return shard_; }
  bool drained() const {
    return gen_done_ && in_flight_ == 0 && queue_size_ == 0;
  }

  /// Merge this source's whole-run tallies into `out` (called once, after
  /// the simulation stopped; reads the live queue/in-flight remainders).
  void collect(OpenLoopResult& out) const;

  /// Typed-lane hop for kOpenLoopArrival (`ev.target` is the source).
  static void dispatch_arrival(const sim::TypedEvent& ev);

 private:
  struct QueuedOp {
    SimTime intended = 0;
    Op op{};
  };

  void on_arrival();
  void schedule_next_arrival(SimTime now);
  /// Intended arrival rate at simulated time t (rate-curve envelope).
  double lambda_at(SimTime t) const;
  /// Inter-arrival gap drawn from the configured process at rate lambda(t).
  SimDuration next_gap(SimTime now);

  void draw_op(Op& op);
  void issue(const Op& op, SimTime intended);
  void do_read(const Op& op, SimTime intended, bool then_write);
  void do_write(const Op& op, SimTime intended);
  /// Final completion of one operation (the write half for RMW): ledger,
  /// SLA tally, and queue pump.
  void finish_op(bool ok, bool shed, SimTime intended);
  void pump_queue();
  void maybe_finished();

  ClientEnv* env_;
  net::DcId dc_;
  const WorkloadSpec* spec_;
  double rate_;
  std::uint64_t insert_lane_, insert_stride_;
  Rng rng_;
  std::unique_ptr<KeyDistribution> keys_;
  ScrambledZipfianKeys users_;
  double props_[4] = {0, 0, 0, 0};  ///< op-type weights, OpType order
  std::uint8_t shard_ = 0;
  /// True in a sharded run: draw_op() then filters keys by
  /// Cluster::home_shard ownership. Off unsharded, where every draw is
  /// owned by construction (zero extra RNG pulls).
  bool key_filter_ = false;
  bool measuring_ = false;
  bool gen_done_ = false;
  bool drain_reported_ = false;

  // Bounded client-side FIFO (ring over a once-allocated vector).
  std::vector<QueuedOp> queue_;
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;

  std::uint32_t in_flight_ = 0;
  std::uint64_t next_insert_seq_ = 0;

  // Whole-run ledger.
  std::uint64_t arrivals_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t shed_queue_full_ = 0;

  // Measured-window tallies.
  std::uint64_t sla_ok_ = 0;
  std::uint64_t sla_total_ = 0;
  LatencyHistogram queueing_delay_;
};

}  // namespace harmony::workload
