#include "net/latency_model.h"

#include <algorithm>

namespace harmony::net {

const LatencyTier& TieredLatencyModel::tier(const Topology& topo, NodeId src,
                                            NodeId dst) const {
  // Mirrors net::classify's fused lookup: one node() per endpoint, and the
  // same-rack test only after same-DC is established.
  if (src == dst) return p_.loopback;
  const NodeInfo& a = topo.node(src);
  const NodeInfo& b = topo.node(dst);
  if (a.dc != b.dc) return p_.cross_dc;
  return a.rack == b.rack ? p_.same_rack : p_.same_dc;
}

SimDuration TieredLatencyModel::sample(const Topology& topo, NodeId src,
                                       NodeId dst, Rng& rng) const {
  const LatencyTier& t = tier(topo, src, dst);
  return std::max(t.floor,
                  rng.lognormal_median(static_cast<double>(t.base), t.sigma));
}

TieredLatencyModel::Params TieredLatencyModel::ec2_two_az() {
  Params p;
  p.loopback = {usec(25), 0.05};
  p.same_rack = {usec(200), 0.25};
  p.same_dc = {usec(500), 0.3};
  p.cross_dc = {msec(1.6), 0.35};
  return p;
}

TieredLatencyModel::Params TieredLatencyModel::grid5000_two_sites() {
  Params p;
  p.loopback = {usec(15), 0.05};
  p.same_rack = {usec(100), 0.15};
  p.same_dc = {usec(250), 0.2};
  p.cross_dc = {msec(9), 0.2};
  return p;
}

TieredLatencyModel::Params TieredLatencyModel::lan() {
  Params p;
  p.loopback = {usec(15), 0.05};
  p.same_rack = {usec(100), 0.15};
  p.same_dc = {usec(250), 0.2};
  p.cross_dc = {usec(600), 0.25};  // two clusters, same site
  return p;
}

}  // namespace harmony::net
