// Closed-loop YCSB-style client.
//
// Each client is homed in a datacenter, draws operations from the shared
// workload stream, issues them through the current consistency policy, and
// issues the next operation when the previous completes (optionally paced to
// a target rate, which makes the loop semi-open). Throughput is therefore an
// emergent property of operation latency and node capacity, exactly as with
// real YCSB clients against Cassandra.
#pragma once

#include <cstdint>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "monitor/monitor.h"
#include "workload/policy.h"
#include "workload/spec.h"

namespace harmony::workload {

struct Op {
  OpType type = OpType::kRead;
  cluster::Key key = 0;
  std::uint32_t value_size = 0;
};

/// The runner-side services a client needs. Runs inside the simulation loop:
/// single-threaded by default, or — under sharded execution — on the worker
/// thread of the client's key-range shard. Implementations must keep any state
/// they mutate from these callbacks shard-local (see workload/runner.cpp).
/// Clients report their measurements through Cluster::record_*, never to
/// the monitor directly, so every run feeds the observer the same way.
class ClientEnv {
 public:
  virtual ~ClientEnv() = default;
  /// Fetch the next operation; false when the op budget is exhausted.
  virtual bool next_op(Op& op) = 0;
  virtual const policy::ConsistencyPolicy& policy() const = 0;
  virtual cluster::Cluster& cluster() = 0;
  /// The run's monitor. Clients never call it; bench/e2e's traced stack
  /// still overrides it, so it stays until that stack changes.
  virtual monitor::Monitor& monitor() = 0;
  virtual sim::Simulation& simulation() = 0;
  /// Completion hooks (latency measured client-side).
  virtual void on_read_complete(const cluster::ReadResult& result,
                                SimDuration latency, int replicas_requested) = 0;
  virtual void on_write_complete(const cluster::WriteResult& result,
                                 SimDuration latency) = 0;
  virtual void on_client_finished() = 0;
};

class Client {
 public:
  /// `reroute_on_dc_outage` / `shed_retry_limit` mirror the WorkloadSpec
  /// resilience knobs (the runner forwards them). `shard` is the event shard
  /// the client's whole closed loop runs on: the runner homes each client on
  /// one key-range shard of the single DC (0 in a one-shard run).
  Client(ClientEnv& env, net::DcId home_dc, double target_rate_per_s, Rng rng,
         bool reroute_on_dc_outage = false, int shed_retry_limit = 8,
         std::uint8_t shard = 0);

  /// Schedule this client's first operation (with a small random stagger so
  /// clients do not start in lockstep).
  void start();

  net::DcId home_dc() const { return home_; }
  /// The event shard this client's loop runs on (0 unsharded).
  std::uint8_t shard() const { return shard_; }
  std::uint64_t ops_issued() const { return issued_; }
  /// Operations routed to a non-home DC because home had no alive node.
  std::uint64_t rerouted_ops() const { return rerouted_; }
  /// Re-issues of admission-shed operations (each shed->re-issue counts one).
  std::uint64_t shed_retries() const { return shed_retries_; }

  /// Typed-lane dispatcher for the workload event domain (`ev.target` names
  /// the Client instance). Registered on the Simulation by start().
  static void dispatch_event(const sim::TypedEvent& ev);

 private:
  void issue_next();
  void schedule_next();
  /// `first_start` is the op's first issue time (shed retries keep it, so
  /// latency stays end-to-end); `shed_attempts` counts re-issues so far.
  void do_read(const Op& op, bool then_write, SimTime first_start,
               int shed_attempts);
  void do_write(const Op& op, SimTime first_start, int shed_attempts);
  /// Home DC while it has alive nodes; otherwise the next alive DC (when
  /// re-routing is enabled). With every DC dark it stays home: a serial
  /// cluster then has no node to coordinate and answers unavailable.
  net::DcId route_dc();

  ClientEnv* env_;
  net::DcId home_;
  double target_rate_;
  Rng rng_;
  /// Event shard the client's issue loop runs on (ctor-assigned by the
  /// runner: one key-range shard of the single DC; 0 unsharded).
  std::uint8_t shard_ = 0;
  SimTime last_issue_ = 0;
  /// Rate-paced clients: the op's *intended* issue time on the arrival grid.
  /// The grid advances by the drawn gaps alone; when completions lag the
  /// grid, the issue slips later but latency is still measured from here —
  /// otherwise queueing delay silently shrinks offered load and every
  /// latency figure at saturation comes out optimistic (coordinated
  /// omission). -1 until the first paced gap is drawn.
  SimTime next_intended_ = -1;
  std::uint64_t issued_ = 0;
  bool finished_ = false;
  bool reroute_ = false;
  int shed_retry_limit_ = 8;
  std::uint64_t rerouted_ = 0;
  std::uint64_t shed_retries_ = 0;
};

}  // namespace harmony::workload
