#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "net/latency_model.h"
#include "net/net_stats.h"
#include "net/topology.h"

namespace harmony::net {
namespace {

TEST(Topology, BalancedSplitsEvenly) {
  const auto topo = Topology::balanced(10, 2);
  EXPECT_EQ(topo.node_count(), 10u);
  EXPECT_EQ(topo.dc_count(), 2u);
  EXPECT_EQ(topo.nodes_in_dc(0).size(), 5u);
  EXPECT_EQ(topo.nodes_in_dc(1).size(), 5u);
}

TEST(Topology, BalancedRemainderGoesToFirstDcs) {
  const auto topo = Topology::balanced(7, 3);
  EXPECT_EQ(topo.nodes_in_dc(0).size(), 3u);
  EXPECT_EQ(topo.nodes_in_dc(1).size(), 2u);
  EXPECT_EQ(topo.nodes_in_dc(2).size(), 2u);
}

TEST(Topology, PaperScaleTopologies) {
  // 84 Grid'5000 nodes over two clusters; 20 EC2 VMs; 18 VMs over 2 AZs.
  for (auto [n, d] : {std::pair<std::size_t, std::size_t>{84, 2},
                      {20, 2},
                      {18, 2},
                      {50, 2}}) {
    const auto topo = Topology::balanced(n, d);
    EXPECT_EQ(topo.node_count(), n);
    std::size_t total = 0;
    for (std::size_t dc = 0; dc < d; ++dc) {
      total += topo.nodes_in_dc(static_cast<DcId>(dc)).size();
    }
    EXPECT_EQ(total, n);
  }
}

TEST(Topology, SameDcSameRack) {
  Topology topo;
  const auto dc0 = topo.add_datacenter();
  const auto dc1 = topo.add_datacenter();
  const auto a = topo.add_node(dc0, 0);
  const auto b = topo.add_node(dc0, 0);
  const auto c = topo.add_node(dc0, 1);
  const auto d = topo.add_node(dc1, 0);
  EXPECT_TRUE(topo.same_rack(a, b));
  EXPECT_FALSE(topo.same_rack(a, c));
  EXPECT_TRUE(topo.same_dc(a, c));
  EXPECT_FALSE(topo.same_dc(a, d));
}

TEST(Topology, BadAccessThrows) {
  Topology topo;
  topo.add_datacenter();
  EXPECT_THROW(topo.node(0), harmony::CheckError);
  EXPECT_THROW(topo.add_node(5, 0), harmony::CheckError);
}

/// Median of 201 sampled one-way delays src -> dst.
SimDuration sampled_median(const TieredLatencyModel& model,
                           const Topology& topo, NodeId src, NodeId dst) {
  harmony::Rng rng(7);
  std::vector<SimDuration> xs;
  for (int i = 0; i < 201; ++i) xs.push_back(model.sample(topo, src, dst, rng));
  std::nth_element(xs.begin(), xs.begin() + 100, xs.end());
  return xs[100];
}

TEST(LatencyModel, TierOrdering) {
  const auto topo = Topology::balanced(8, 2);
  TieredLatencyModel model(TieredLatencyModel::grid5000_two_sites());
  // loopback < same-dc < cross-dc, in the tiers and in what sample() draws.
  const TieredLatencyModel::Params& p = model.params();
  EXPECT_LT(p.loopback.base, p.same_dc.base);
  EXPECT_LT(p.same_dc.base, p.cross_dc.base);
  NodeId same_dc = 0, cross_dc = 0;
  for (NodeId n = 1; n < 8; ++n) {
    if (topo.same_dc(0, n) && !topo.same_rack(0, n)) same_dc = n;
    if (!topo.same_dc(0, n)) cross_dc = n;
  }
  const SimDuration loop = sampled_median(model, topo, 0, 0);
  EXPECT_LT(loop, sampled_median(model, topo, 0, same_dc));
  EXPECT_LT(sampled_median(model, topo, 0, same_dc),
            sampled_median(model, topo, 0, cross_dc));
}

TEST(LatencyModel, SamplesArePositiveAndJittered) {
  const auto topo = Topology::balanced(4, 2);
  TieredLatencyModel model(TieredLatencyModel::ec2_two_az());
  harmony::Rng rng(1);
  NodeId remote = topo.same_dc(0, 1) ? 2 : 1;
  SimDuration lo = sec(1), hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto s = model.sample(topo, 0, remote, rng);
    ASSERT_GT(s, 0);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_LT(lo, hi);  // jitter present
  // Median should be in the right ballpark for cross-AZ (1.6ms).
  EXPECT_GT(hi, msec(1));
}

TEST(LatencyModel, MeanAboveMedianForLognormal) {
  // Lognormal jitter around the tier's median skews the sampled mean above
  // it: base * exp(sigma^2 / 2), +2% for the Grid'5000 WAN tier.
  const auto topo = Topology::balanced(4, 2);
  TieredLatencyModel::Params p = TieredLatencyModel::grid5000_two_sites();
  TieredLatencyModel model(p);
  NodeId remote = topo.same_dc(0, 1) ? 2 : 1;
  harmony::Rng rng(3);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(model.sample(topo, 0, remote, rng));
  }
  EXPECT_GT(sum / n, static_cast<double>(p.cross_dc.base));
}

TEST(LatencyModel, PresetsHaveDistinctWanCosts) {
  const auto lan = TieredLatencyModel::lan();
  const auto g5k = TieredLatencyModel::grid5000_two_sites();
  const auto ec2 = TieredLatencyModel::ec2_two_az();
  EXPECT_LT(lan.cross_dc.base, ec2.cross_dc.base);
  EXPECT_LT(ec2.cross_dc.base, g5k.cross_dc.base);
}

TEST(NetStats, ClassifyAndAccount) {
  const auto topo = Topology::balanced(8, 2);
  NetStats stats;
  NodeId remote = 0, local = 0;
  for (NodeId n = 1; n < 8; ++n) {
    if (!topo.same_dc(0, n)) remote = n;
    if (topo.same_dc(0, n)) local = n;
  }
  stats.record(classify(topo, 0, 0), 10);
  stats.record(classify(topo, 0, local), 100);
  stats.record(classify(topo, 0, remote), 1000);
  EXPECT_EQ(stats.total_messages(), 3u);
  EXPECT_EQ(stats.total_bytes(), 1110u);
  EXPECT_EQ(stats.cross_dc_bytes(), 1000u);
  EXPECT_EQ(stats.intra_dc_bytes(), 110u);
}

TEST(NetStats, MergeAndReset) {
  NetStats a, b;
  a.record(LinkClass::kCrossDc, 5);
  b.record(LinkClass::kCrossDc, 7);
  b.record(LinkClass::kSameDc, 3);
  a.merge(b);
  EXPECT_EQ(a.cross_dc_bytes(), 12u);
  EXPECT_EQ(a.total_messages(), 3u);
  a.reset();
  EXPECT_EQ(a.total_bytes(), 0u);
}

TEST(NetStats, LinkClassNames) {
  EXPECT_EQ(to_string(LinkClass::kCrossDc), "cross-dc");
  EXPECT_EQ(to_string(LinkClass::kLoopback), "loopback");
}

}  // namespace
}  // namespace harmony::net
