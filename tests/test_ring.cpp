#include "cluster/token_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/shard_map.h"
#include "common/check.h"
#include "common/rng.h"
#include "reference/reference_ring.h"

namespace harmony::cluster {
namespace {

/// NTS placement as a vector (the request path writes a ReplicaList).
std::vector<net::NodeId> place(const TokenRing& ring, Key key,
                               const DcCounts& rf_per_dc) {
  ReplicaList out;
  ring.replicas_nts(key, rf_per_dc, out);
  return {out.begin(), out.end()};
}

TEST(TokenRing, ReplicasAreDistinctNodes) {
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 8, 42);
  for (Key k = 0; k < 500; ++k) {
    const auto replicas = place(ring, k, {2, 1});
    ASSERT_EQ(replicas.size(), 3u);
    const std::set<net::NodeId> uniq(replicas.begin(), replicas.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(TokenRing, DeterministicPlacement) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing r1(topo, 8, 7), r2(topo, 8, 7);
  for (Key k = 0; k < 200; ++k) {
    EXPECT_EQ(place(r1, k, {2, 1}), place(r2, k, {2, 1}));
  }
}

TEST(TokenRing, DifferentSeedsChangePlacement) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing r1(topo, 8, 7), r2(topo, 8, 8);
  int diff = 0;
  for (Key k = 0; k < 200; ++k) {
    if (place(r1, k, {2, 1}) != place(r2, k, {2, 1})) ++diff;
  }
  EXPECT_GT(diff, 150);
}

// Ownership balance improves with vnode count.
class RingBalance : public ::testing::TestWithParam<int> {};

TEST_P(RingBalance, OwnershipWithinBounds) {
  const int vnodes = GetParam();
  const auto topo = net::Topology::balanced(16, 2);
  TokenRing ring(topo, vnodes, 123);
  const auto owned = ring.ownership();
  const double fair = 1.0 / 16.0;
  double max_share = 0;
  double total = 0;
  for (double o : owned) {
    max_share = std::max(max_share, o);
    total += o;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Loose bound that tightens with vnodes: 256 vnodes keeps the worst node
  // under ~2.2x fair share; 8 vnodes may reach ~4x.
  const double bound = vnodes >= 256 ? 2.2 : (vnodes >= 64 ? 3.0 : 4.5);
  EXPECT_LT(max_share, fair * bound) << "vnodes=" << vnodes;
}

INSTANTIATE_TEST_SUITE_P(VnodeCounts, RingBalance,
                         ::testing::Values(8, 64, 256));

TEST(TokenRing, KeysSpreadAcrossNodes) {
  // With one replica wanted per DC, the first replica is the key's primary:
  // the owner of the first vnode clockwise from its token.
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 64, 5);
  std::vector<int> primary_count(10, 0);
  for (Key k = 0; k < 5000; ++k) {
    ++primary_count[place(ring, k, {1, 1})[0]];
  }
  for (int c : primary_count) {
    EXPECT_GT(c, 100);  // every node owns a meaningful share
  }
}

TEST(TokenRing, NtsPerDcCounts) {
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 16, 9);
  for (Key k = 0; k < 300; ++k) {
    const auto replicas = place(ring, k, {3, 2});
    ASSERT_EQ(replicas.size(), 5u);
    int dc0 = 0, dc1 = 0;
    for (const auto n : replicas) {
      (topo.dc_of(n) == 0 ? dc0 : dc1)++;
    }
    EXPECT_EQ(dc0, 3);
    EXPECT_EQ(dc1, 2);
    const std::set<net::NodeId> uniq(replicas.begin(), replicas.end());
    EXPECT_EQ(uniq.size(), 5u);
  }
}

TEST(TokenRing, NtsSingleDcZeroAllowed) {
  const auto topo = net::Topology::balanced(8, 2);
  TokenRing ring(topo, 16, 9);
  const auto replicas = place(ring, 7, {3, 0});
  ASSERT_EQ(replicas.size(), 3u);
  for (const auto n : replicas) EXPECT_EQ(topo.dc_of(n), 0);
}

TEST(TokenRing, RfBeyondNodesThrows) {
  const auto topo = net::Topology::balanced(4, 2);
  TokenRing ring(topo, 8, 1);
  EXPECT_THROW(place(ring, 1, {3, 2}), harmony::CheckError);
  EXPECT_THROW(place(ring, 1, {3, 0}), harmony::CheckError);
}

TEST(TokenRing, TokenForIsStable) {
  EXPECT_EQ(TokenRing::token_for(42), TokenRing::token_for(42));
  EXPECT_NE(TokenRing::token_for(42), TokenRing::token_for(43));
}

// The per-DC cursor merge inside replicas_nts must reproduce the classic
// "walk the global ring clockwise, admit nodes while their DC still owes
// replicas" placement, including the interleaved output order
// (tests/reference/reference_ring.h walks the ring's sorted vnodes).
TEST(TokenRing, NtsMatchesGlobalWalkReference) {
  for (const std::size_t nodes : {10u, 13u}) {
    const auto topo = net::Topology::balanced(nodes, 2);
    TokenRing ring(topo, 16, 77);
    for (const auto& rf_per_dc :
         {std::vector<int>{3, 2}, {2, 2}, {3, 0}, {0, 1}, {1, 1}}) {
      const DcCounts counts{rf_per_dc[0], rf_per_dc[1]};
      for (Key k = 0; k < 400; ++k) {
        EXPECT_EQ(place(ring, k, counts),
                  harmony::testing::reference_nts(ring, topo, k, rf_per_dc))
            << "nodes=" << nodes << " key=" << k;
      }
    }
  }
}

// arc_of's radix index must answer exactly what a binary search over the
// sorted vnodes answers, wrapping past the last token to arc 0 — at every
// vnode token, one either side of it, both ends of the token space and
// random tokens, on rings from one vnode to 84 x 256.
TEST(TokenRing, ArcOfMatchesLowerBound) {
  struct Shape {
    std::size_t nodes, dcs;
    int vnodes_per_node;
  };
  for (const Shape shape : {Shape{1, 1, 1}, Shape{3, 1, 1}, Shape{10, 2, 16},
                            Shape{84, 2, 256}}) {
    const auto topo = net::Topology::balanced(shape.nodes, shape.dcs);
    const TokenRing ring(topo, shape.vnodes_per_node, 31);
    const auto& vnodes = ring.vnodes();
    ASSERT_EQ(vnodes.size(), shape.nodes * shape.vnodes_per_node);
    auto expected = [&vnodes](std::uint64_t token) -> std::size_t {
      const auto it = std::lower_bound(
          vnodes.begin(), vnodes.end(), token,
          [](const TokenRing::VNode& v, std::uint64_t t) {
            return v.token < t;
          });
      return it == vnodes.end() ? 0 : it - vnodes.begin();
    };
    std::vector<std::uint64_t> tokens = {0, ~0ULL};
    for (const auto& v : vnodes) {
      tokens.insert(tokens.end(), {v.token - 1, v.token, v.token + 1});
    }
    Rng rng(shape.nodes);
    for (int i = 0; i < 10'000; ++i) tokens.push_back(rng.next());
    for (const std::uint64_t t : tokens) {
      ASSERT_EQ(ring.arc_of(t), expected(t))
          << shape.nodes << "x" << shape.vnodes_per_node << " token " << t;
    }
  }
}

// ------------------------------------------------- key-range shard ownership

/// First token of range `r` out of `ranges`: the smallest t with
/// floor(t * ranges / 2^64) == r, i.e. ceil(r * 2^64 / ranges).
std::uint64_t range_start(std::uint32_t r, std::uint32_t ranges) {
  if (r == 0) return 0;
  const unsigned __int128 num =
      (static_cast<unsigned __int128>(r) << 64) + ranges - 1;
  return static_cast<std::uint64_t>(num / ranges);
}

TEST(TokenRing, RangeOfOwnsBoundaryTokens) {
  for (const std::uint32_t ranges : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
    // The extreme tokens: range 0 owns token 0, the last range owns 2^64-1 —
    // the token space never wraps a range across the 2^64 boundary, so key
    // ownership has no wrap-around case to get wrong.
    EXPECT_EQ(TokenRing::range_of(0, ranges), 0u) << "ranges " << ranges;
    EXPECT_EQ(TokenRing::range_of(~0ULL, ranges), ranges - 1)
        << "ranges " << ranges;
    // Every interior boundary: the first token of range r lands in r, the
    // token just below it in r-1 — ranges partition the space with no gap
    // and no overlap.
    for (std::uint32_t r = 1; r < ranges; ++r) {
      const std::uint64_t t = range_start(r, ranges);
      EXPECT_EQ(TokenRing::range_of(t, ranges), r)
          << "ranges " << ranges << " r " << r;
      EXPECT_EQ(TokenRing::range_of(t - 1, ranges), r - 1)
          << "ranges " << ranges << " r " << r;
    }
  }
}

TEST(ShardMap, SingleShardPlanDegeneratesToPerDcLayout) {
  const auto topo = net::Topology::balanced(12, 3);
  ShardMap legacy, planned;
  legacy.build(topo, {}, 3);                // empty plan: PR 8 layout
  planned.build(topo, {1, 1, 1}, 3);        // explicit all-1s plan
  EXPECT_FALSE(legacy.multi_shard_dc());
  EXPECT_FALSE(planned.multi_shard_dc());
  for (net::DcId d = 0; d < 3; ++d) {
    EXPECT_EQ(legacy.shard_base(d), d);
    EXPECT_EQ(planned.shard_base(d), d);
    EXPECT_EQ(legacy.shards_in_dc(d), 1u);
  }
  for (net::NodeId n = 0; n < 12; ++n) {
    EXPECT_EQ(legacy.node_shard(n), topo.dc_of(n));
    EXPECT_EQ(planned.node_shard(n), topo.dc_of(n));
  }
  for (Key k = 0; k < 500; ++k) {
    for (net::DcId d = 0; d < 3; ++d) {
      EXPECT_EQ(legacy.home_shard(d, k), d);
      EXPECT_EQ(planned.home_shard(d, k), d);
    }
  }
}

TEST(ShardMap, KeyRangeOwnershipPartitionsTheDc) {
  const auto topo = net::Topology::balanced(8, 1);
  ShardMap map;
  map.build(topo, {4}, 4);
  EXPECT_TRUE(map.multi_shard_dc());
  EXPECT_EQ(map.shards_in_dc(0), 4u);
  // Nodes deal round-robin over the DC's shard range; every shard gets a
  // coordinator candidate.
  std::size_t owned = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.dc_of_shard(s), 0);
    EXPECT_FALSE(map.nodes_of_shard(s).empty());
    owned += map.nodes_of_shard(s).size();
  }
  EXPECT_EQ(owned, 8u);
  for (net::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(map.node_shard(n), n % 4);
  }
  // home_shard is exactly the token-range cut: one owner per key, and every
  // shard ends up owning a slice of a uniform key stream.
  std::uint64_t per_shard[4] = {0, 0, 0, 0};
  for (Key k = 0; k < 4000; ++k) {
    const std::uint32_t s = map.home_shard(0, k);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, TokenRing::range_of(TokenRing::token_for(k), 4));
    ++per_shard[s];
  }
  for (const std::uint64_t n : per_shard) EXPECT_GT(n, 500u);
}

TEST(ShardMap, MixedPlanKeepsDcRangesContiguous) {
  const auto topo = net::Topology::balanced(12, 3);
  ShardMap map;
  map.build(topo, {2, 1, 3}, 6);
  EXPECT_TRUE(map.multi_shard_dc());
  EXPECT_EQ(map.shard_base(0), 0u);
  EXPECT_EQ(map.shard_base(1), 2u);
  EXPECT_EQ(map.shard_base(2), 3u);
  const net::DcId expect_dc[6] = {0, 0, 1, 2, 2, 2};
  for (std::uint32_t s = 0; s < 6; ++s) {
    EXPECT_EQ(map.dc_of_shard(s), expect_dc[s]) << "shard " << s;
  }
  for (Key k = 0; k < 1000; ++k) {
    // Single-shard DCs keep the whole key space; split DCs stay inside
    // their contiguous shard range.
    EXPECT_EQ(map.home_shard(1, k), 2u);
    const std::uint32_t s0 = map.home_shard(0, k);
    EXPECT_GE(s0, 0u);
    EXPECT_LT(s0, 2u);
    const std::uint32_t s2 = map.home_shard(2, k);
    EXPECT_GE(s2, 3u);
    EXPECT_LT(s2, 6u);
    // The range index is the same cut everywhere; only the base shifts.
    EXPECT_EQ(s2 - 3u,
              TokenRing::range_of(TokenRing::token_for(k), 3));
  }
}

}  // namespace
}  // namespace harmony::cluster
