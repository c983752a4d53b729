// Naive reference twin of TokenRing's NetworkTopologyStrategy placement.
//
// The textbook definition: walk the global ring clockwise from the key's
// token and admit each node not yet chosen while its DC still owes replicas.
// TokenRing::replicas_nts reaches the same interleaved order by merging
// per-DC cursors over a skip table; the ring tests demand the two agree.
#pragma once

#include <vector>

#include "cluster/token_ring.h"

namespace harmony::testing {

inline std::vector<net::NodeId> reference_nts(const cluster::TokenRing& ring,
                                              const net::Topology& topo,
                                              cluster::Key key,
                                              std::vector<int> wanted) {
  const auto& vnodes = ring.vnodes();
  const std::uint64_t token = cluster::TokenRing::token_for(key);
  std::size_t start = 0;
  while (start < vnodes.size() && vnodes[start].token < token) ++start;
  std::vector<net::NodeId> out;
  std::vector<bool> seen(topo.node_count(), false);
  for (std::size_t i = 0; i < vnodes.size(); ++i) {
    const net::NodeId n = vnodes[(start + i) % vnodes.size()].node;
    if (seen[n]) continue;
    seen[n] = true;
    if (wanted[topo.dc_of(n)] > 0) {
      out.push_back(n);
      --wanted[topo.dc_of(n)];
    }
  }
  return out;
}

}  // namespace harmony::testing
