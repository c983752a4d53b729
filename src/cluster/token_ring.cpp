#include "cluster/token_ring.h"

#include <algorithm>
#include <cmath>

#include "common/distributions.h"

namespace harmony::cluster {

TokenRing::TokenRing(const net::Topology& topo, int vnodes_per_node,
                     std::uint64_t seed)
    : topo_(&topo) {
  HARMONY_CHECK(vnodes_per_node >= 1);
  HARMONY_CHECK(topo.node_count() >= 1);
  ring_.reserve(topo.node_count() * static_cast<std::size_t>(vnodes_per_node));
  for (const auto& n : topo.nodes()) {
    for (int v = 0; v < vnodes_per_node; ++v) {
      // Deterministic, well-scattered tokens per (seed, node, vnode).
      const std::uint64_t token =
          mix64(seed ^ (static_cast<std::uint64_t>(n.id) * 0x9E3779B97F4A7C15ULL) ^
                (static_cast<std::uint64_t>(v) + 0xD1B54A32D192ED03ULL));
      ring_.push_back({token, n.id});
    }
  }
  // (token, node) order: the node tie-break makes the walk order fully
  // deterministic even in the (vanishingly unlikely) event of a token collision.
  std::sort(ring_.begin(), ring_.end(), [](const VNode& a, const VNode& b) {
    if (a.token != b.token) return a.token < b.token;
    return a.node < b.node;
  });
  // Per-DC index: each DC's vnodes in the same clockwise order, so NTS can
  // walk one DC without stepping over the others' vnodes.
  dc_ring_.resize(topo.dc_count());
  for (std::size_t d = 0; d < dc_ring_.size(); ++d) {
    dc_ring_[d].reserve(topo.nodes_in_dc(static_cast<net::DcId>(d)).size() *
                        static_cast<std::size_t>(vnodes_per_node));
  }
  for (const VNode& v : ring_) dc_ring_[topo.dc_of(v.node)].push_back(v);

  // Skip table for NTS cursor seeding (see header). Built back-to-front so
  // each position inherits the successor's "next" until a DC vnode overrides.
  const std::size_t n = ring_.size();
  HARMONY_CHECK_MSG(n < (std::uint64_t{1} << 32),
                    "ring size must fit the u32 ring indexes");
  std::vector<std::uint32_t> local_idx(n);
  std::vector<std::uint32_t> counter(topo.dc_count(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    local_idx[i] = counter[topo.dc_of(ring_[i].node)]++;
  }
  next_in_dc_.resize(topo.dc_count());
  for (std::size_t d = 0; d < next_in_dc_.size(); ++d) {
    next_in_dc_[d].assign(n + 1, static_cast<std::uint32_t>(dc_ring_[d].size()));
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t d = 0; d < next_in_dc_.size(); ++d) {
      next_in_dc_[d][i] = next_in_dc_[d][i + 1];
    }
    next_in_dc_[topo.dc_of(ring_[i].node)][i] = local_idx[i];
  }

  // Radix index for arc_of (see header), filled in one merge pass over the
  // bucket starts and the sorted ring.
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < 2 * static_cast<std::uint64_t>(n)) ++bits;
  arc_shift_ = 64 - bits;
  arc_index_.resize(std::size_t{1} << bits);
  std::uint32_t first = 0;
  for (std::size_t b = 0; b < arc_index_.size(); ++b) {
    const std::uint64_t bucket = static_cast<std::uint64_t>(b) << arc_shift_;
    while (first < n && ring_[first].token < bucket) ++first;
    arc_index_[b] = first;
  }
}

std::uint64_t TokenRing::token_for(Key key) { return mix64(key); }

void TokenRing::replicas_at(std::size_t arc, const DcCounts& rf_per_dc,
                            ReplicaList& out) const {
  const std::size_t dcs = rf_per_dc.size();
  HARMONY_CHECK(dcs == topo_->dc_count());
  HARMONY_CHECK_MSG(dcs <= kMaxDcs, "dc_count exceeds kMaxDcs");
  HARMONY_CHECK(arc < ring_.size());
  out.clear();
  const std::uint64_t t = ring_[arc].token;

  // One cursor per DC that still owes replicas; placement within a DC is the
  // clockwise walk over that DC's own vnodes, and the global interleaved
  // order is recovered by always advancing the cursor whose current vnode is
  // nearest clockwise from the arc's token.
  struct Cursor {
    const std::vector<VNode>* ring;
    std::size_t idx;
    std::size_t walked;
    std::uint64_t rank;  ///< clockwise distance token -> vnode (mod 2^64)
    net::DcId dc;
    int wanted;
  };
  SmallVec<Cursor, kMaxDcs> cursors;
  for (std::size_t d = 0; d < dcs; ++d) {
    HARMONY_CHECK_MSG(
        static_cast<std::size_t>(rf_per_dc[d]) <=
            topo_->nodes_in_dc(static_cast<net::DcId>(d)).size(),
        "per-DC rf exceeds DC size");
    if (rf_per_dc[d] <= 0) continue;
    const std::vector<VNode>& ring = dc_ring_[d];
    std::size_t idx = next_in_dc_[d][arc];
    if (idx == ring.size()) idx = 0;  // wrap past the last token
    cursors.push_back(Cursor{&ring, idx, 0, ring[idx].token - t,
                             static_cast<net::DcId>(d), rf_per_dc[d]});
  }

  while (!cursors.empty()) {
    // Pick the cursor nearest clockwise (ties broken by node id, matching the
    // global ring's (token, node) sort order).
    std::size_t best = 0;
    for (std::size_t c = 1; c < cursors.size(); ++c) {
      const Cursor& a = cursors[c];
      const Cursor& b = cursors[best];
      if (a.rank < b.rank ||
          (a.rank == b.rank &&
           (*a.ring)[a.idx].node < (*b.ring)[b.idx].node)) {
        best = c;
      }
    }
    Cursor& cur = cursors[best];
    const net::NodeId n = (*cur.ring)[cur.idx].node;
    if (std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
      --cur.wanted;
    }
    ++cur.walked;
    if (cur.wanted == 0 || cur.walked == cur.ring->size()) {
      HARMONY_CHECK_MSG(cur.wanted == 0, "could not satisfy NTS placement");
      cursors[best] = cursors.back();
      cursors.pop_back();
      continue;
    }
    if (++cur.idx == cur.ring->size()) cur.idx = 0;
    cur.rank = (*cur.ring)[cur.idx].token - t;
  }
}

std::vector<double> TokenRing::ownership() const {
  std::vector<double> owned(topo_->node_count(), 0.0);
  const double full = std::pow(2.0, 64.0);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    // vnode i owns (previous token, token]; the first wraps around.
    const std::uint64_t hi = ring_[i].token;
    const std::uint64_t lo = ring_[i == 0 ? ring_.size() - 1 : i - 1].token;
    const double span = (i == 0)
                            ? static_cast<double>(hi) +
                                  (full - static_cast<double>(lo))
                            : static_cast<double>(hi - lo);
    owned[ring_[i].node] += span / full;
  }
  return owned;
}

}  // namespace harmony::cluster
