// One-way message latency between cluster nodes.
//
// Latency class is determined by topology (same node / same rack / same DC /
// cross DC); each class has a base latency plus lognormal jitter, matching the
// long-tailed RTTs measured on EC2 and Grid'5000. Presets mirror the paper's
// two platforms. The cluster holds one TieredLatencyModel by value.
#pragma once

#include "common/rng.h"
#include "common/time_types.h"
#include "net/topology.h"

namespace harmony::net {

/// Base + lognormal jitter per latency class. `sigma` is log-space stddev;
/// 0.25 gives a p99/median ratio of ~1.8, typical of a healthy datacenter.
/// `floor` clamps samples from below (real links never beat the speed of
/// light); a positive cross-DC floor is also what the sharded executor uses
/// as its conservative lookahead — no cross-DC message can arrive sooner.
struct LatencyTier {
  SimDuration base = 0;   ///< median one-way latency
  double sigma = 0.25;    ///< lognormal jitter
  SimDuration floor = 0;  ///< hard minimum (propagation delay)
};

class TieredLatencyModel {
 public:
  struct Params {
    LatencyTier loopback{usec(20), 0.05};
    LatencyTier same_rack{usec(150), 0.2};
    LatencyTier same_dc{usec(400), 0.25};
    LatencyTier cross_dc{msec(8), 0.3};
  };

  explicit TieredLatencyModel(Params p) : p_(p) {}

  /// Sample a one-way delay for a message src -> dst.
  SimDuration sample(const Topology& topo, NodeId src, NodeId dst,
                     Rng& rng) const;

  const Params& params() const { return p_; }

  /// Amazon EC2, two availability zones in one region (paper §IV-B setup and
  /// the EC2 Harmony runs): sub-ms in-AZ, ~1.6 ms cross-AZ one way.
  static Params ec2_two_az();
  /// Grid'5000, two sites (Rennes ↔ Sophia class WAN): ~9 ms one way.
  static Params grid5000_two_sites();
  /// Single-site LAN (both clusters in one Grid'5000 site).
  static Params lan();

 private:
  const LatencyTier& tier(const Topology& topo, NodeId src, NodeId dst) const;
  Params p_;
};

}  // namespace harmony::net
