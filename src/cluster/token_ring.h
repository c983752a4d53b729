// Consistent-hash token ring with virtual nodes and Cassandra's
// NetworkTopologyStrategy placement: per-datacenter replica counts, each DC's
// replicas chosen clockwise within that DC, in global clockwise order.
//
// Placement depends only on a token's arc — the first vnode at or after it —
// so a ring of n vnodes has only n distinct replica lists. arc_of() finds the
// arc in O(1) through a radix index over the token's top bits; replicas_at()
// walks the ring once per arc (Cluster tabulates every arc at construction).
// The walk keeps a per-DC index (each DC's vnodes in token order) and merges
// those DC-local walks by clockwise distance instead of scanning the global
// ring past foreign-DC vnodes. Replica sets are produced into fixed-capacity
// inline lists (ReplicaList) — no heap allocation per lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/versioned_value.h"
#include "common/check.h"
#include "common/small_vec.h"
#include "net/topology.h"

namespace harmony::cluster {

/// Upper bounds baked into the inline request-path containers. The paper's
/// deployments use rf 3–5 over 2 DCs; 8 leaves headroom while keeping pending
/// request state pocket-sized. Exceeding either fails a loud contract check.
/// Builds that need wider replica sets (geo deployments with many DCs) can
/// raise the bound: -DHARMONY_MAX_REPLICAS=<n> (CMake option of the same
/// name) resizes every inline request-path container in one place.
#ifndef HARMONY_MAX_REPLICAS
#define HARMONY_MAX_REPLICAS 8
#endif
inline constexpr int kMaxReplicas = HARMONY_MAX_REPLICAS;
static_assert(kMaxReplicas >= 2 && kMaxReplicas <= 64,
              "HARMONY_MAX_REPLICAS out of range");
inline constexpr std::size_t kMaxDcs = 8;

using ReplicaList = SmallVec<net::NodeId, kMaxReplicas>;
using DcCounts = SmallVec<int, kMaxDcs>;

class TokenRing {
 public:
  TokenRing(const net::Topology& topo, int vnodes_per_node, std::uint64_t seed);

  /// Hash a key onto the token space.
  static std::uint64_t token_for(Key key);

  /// Key-range sharding: partition the token space [0, 2^64) into `ranges`
  /// equal contiguous ranges and return the index owning `token`. Computed
  /// as floor(token * ranges / 2^64) (a 128-bit multiply, no division), so
  /// range r covers tokens [ceil(r * 2^64 / ranges), ceil((r+1) * 2^64 /
  /// ranges)): range 0 always owns token 0, range `ranges - 1` always owns
  /// 2^64 - 1, and there is no wrap-around range — the ring's wrap (last
  /// vnode -> first vnode) stays a placement concern, not an ownership one.
  static std::uint32_t range_of(std::uint64_t token, std::uint32_t ranges) {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(token) * ranges) >> 64);
  }

  /// NetworkTopologyStrategy placement: rf_per_dc[d] replicas in DC d,
  /// written into `out`. Order: clockwise from the token, so the "primary"
  /// replica comes first.
  void replicas_nts(Key key, const DcCounts& rf_per_dc,
                    ReplicaList& out) const {
    replicas_at(arc_of(token_for(key)), rf_per_dc, out);
  }

  /// NTS placement of every token in arc `arc` (see arc_of). Ranking vnodes
  /// by clockwise distance from any token of the arc gives the clockwise
  /// order from ring index `arc`, so the walk ranks from the arc's own token.
  void replicas_at(std::size_t arc, const DcCounts& rf_per_dc,
                   ReplicaList& out) const;

  /// The arc holding `token`: the ring index of the first vnode at or after
  /// it, 0 past the last vnode — std::lower_bound over vnodes(), wrapped.
  /// The radix entry is the first vnode at or after the token's bucket
  /// start; the scan skips the bucket's vnodes below the token (fewer than
  /// one on average: the index has at least two buckets per vnode).
  std::uint32_t arc_of(std::uint64_t token) const {
    const auto n = static_cast<std::uint32_t>(ring_.size());
    std::uint32_t i = arc_index_[token >> arc_shift_];
    while (i < n && ring_[i].token < token) ++i;
    return i == n ? 0 : i;
  }

  std::size_t vnode_count() const { return ring_.size(); }

  /// Fraction of the token space owned by each node (for balance tests).
  std::vector<double> ownership() const;

  struct VNode {
    std::uint64_t token;
    net::NodeId node;
  };
  /// Every vnode in (token, node) order (for reference-walk tests).
  const std::vector<VNode>& vnodes() const { return ring_; }

 private:
  const net::Topology* topo_;
  std::vector<VNode> ring_;  // sorted by (token, node)
  std::vector<std::vector<VNode>> dc_ring_;  // per-DC vnodes, same order
  // Skip table: next_in_dc_[d][g] is the dc_ring_[d] index of DC d's first
  // vnode at global ring position >= g (== dc_ring_[d].size() means "wrap to
  // 0"). Lets NTS seed all DC cursors from the arc's global index.
  std::vector<std::vector<std::uint32_t>> next_in_dc_;
  // Radix index behind arc_of: 2^b entries, b the smallest width with
  // 2^b >= 2 * vnode_count(); entry i is the first ring index whose token is
  // >= i << arc_shift_ (== vnode_count() past the last token).
  std::vector<std::uint32_t> arc_index_;
  unsigned arc_shift_ = 63;  // 64 - b
};

}  // namespace harmony::cluster
