// Storage node service model.
//
// A node is a single-server FIFO queue over a ReplicaStore: each request
// occupies the node for a (jittered) service time, so saturated or hot-replica
// nodes build queueing delay. That delay is what inflates propagation windows
// under load — the mechanism behind the paper's observation that heavy access
// drives staleness up even inside one datacenter.
#pragma once

#include <cstdint>

#include "cluster/replica_store.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "net/topology.h"

namespace harmony::cluster {

// Defaults approximate a 2012 m1.large running Cassandra: a few thousand
// replica-level ops/s per node, with cache-miss reads paying an EBS-class
// random-read penalty. Digest reads execute the full local read path (as in
// Cassandra, where a digest is a hash over the result of a normal read).
struct NodeParams {
  SimDuration cpu_read = usec(120);    ///< CPU cost of a local data read
  SimDuration cpu_digest = usec(100);  ///< CPU cost of a digest read
  SimDuration cpu_write = usec(140);   ///< CPU cost of applying a mutation
  SimDuration cpu_coord = usec(25);    ///< coordinator bookkeeping per message

  double disk_read_probability = 0.3;  ///< cache-miss fraction of reads
  SimDuration disk_read_median = usec(1500);
  double disk_sigma = 0.5;
  SimDuration commit_log_write = usec(60);  ///< sequential append

  double service_jitter_sigma = 0.15;  ///< lognormal jitter on CPU costs

  /// Billed block-device I/Os per mutation: the commit log batches several
  /// mutations per physical write (memtables absorb the rest).
  double write_disk_io = 0.125;
};

enum class ServiceKind : std::uint8_t { kRead, kDigest, kWrite, kCoordinate };

class Node {
 public:
  Node(net::NodeId id, const NodeParams& params, Rng rng)
      : id_(id), params_(params), rng_(std::move(rng)) {}

  net::NodeId id() const { return id_; }
  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  ReplicaStore& store() { return store_; }
  const ReplicaStore& store() const { return store_; }

  /// Admit a request at `now`; returns the delay until it completes
  /// (queueing + service). Advances the node's busy horizon.
  SimDuration service(ServiceKind kind, SimTime now);

  /// Accumulated busy time (for utilization & the energy model).
  SimDuration busy_time() const { return busy_time_; }
  std::uint64_t requests_served() const { return requests_served_; }
  /// Billed block-device I/O requests (cache-miss reads + amortized commit
  /// log flushes) — what the cloud provider charges for, not op count.
  double disk_io() const { return disk_io_; }

  /// Instantaneous queue backlog at `now` (0 when idle).
  SimDuration backlog(SimTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }

 private:
  SimDuration base_cost(ServiceKind kind);

  net::NodeId id_;
  NodeParams params_;
  Rng rng_;
  ReplicaStore store_;
  bool alive_ = true;
  SimTime busy_until_ = 0;
  SimDuration busy_time_ = 0;
  std::uint64_t requests_served_ = 0;
  double disk_io_ = 0;
};

}  // namespace harmony::cluster
