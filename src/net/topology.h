// Multi-datacenter cluster topology.
//
// The paper's testbeds — 20 VMs on EC2, 84 Grid'5000 nodes over two clusters,
// 18 VMs over two EC2 availability zones, 50 nodes over two Grid'5000 sites —
// are all instances of "N nodes spread over D datacenters", which is what this
// class models. Racks are carried for snitch realism but only DC membership
// affects latency classes and replica placement.
#pragma once

#include <cstdint>
#include <vector>

namespace harmony::net {

using NodeId = std::uint32_t;
using DcId = std::uint16_t;
using RackId = std::uint16_t;

struct NodeInfo {
  NodeId id = 0;
  DcId dc = 0;
  RackId rack = 0;
};

class Topology {
 public:
  /// Add a datacenter; returns its id.
  DcId add_datacenter();

  /// Add a node in `dc` on `rack`.
  NodeId add_node(DcId dc, RackId rack);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t dc_count() const { return dc_members_.size(); }

  const NodeInfo& node(NodeId id) const;
  DcId dc_of(NodeId id) const { return node(id).dc; }
  const std::vector<NodeId>& nodes_in_dc(DcId dc) const;
  const std::vector<NodeInfo>& nodes() const { return nodes_; }

  bool same_dc(NodeId a, NodeId b) const { return dc_of(a) == dc_of(b); }
  bool same_rack(NodeId a, NodeId b) const;

  /// Evenly distribute `count` nodes across `dc_count` datacenters
  /// (first DCs get the remainder), `racks_per_dc` racks each.
  static Topology balanced(std::size_t count, std::size_t dc_count,
                           std::size_t racks_per_dc = 2);

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<std::vector<NodeId>> dc_members_;
};

}  // namespace harmony::net
