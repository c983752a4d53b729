#include "net/topology.h"

#include "common/check.h"

namespace harmony::net {

DcId Topology::add_datacenter() {
  const auto id = static_cast<DcId>(dc_members_.size());
  dc_members_.emplace_back();
  return id;
}

NodeId Topology::add_node(DcId dc, RackId rack) {
  HARMONY_CHECK(dc < dc_members_.size());
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{id, dc, rack});
  dc_members_[dc].push_back(id);
  return id;
}

const NodeInfo& Topology::node(NodeId id) const {
  HARMONY_CHECK(id < nodes_.size());
  return nodes_[id];
}

const std::vector<NodeId>& Topology::nodes_in_dc(DcId dc) const {
  HARMONY_CHECK(dc < dc_members_.size());
  return dc_members_[dc];
}

bool Topology::same_rack(NodeId a, NodeId b) const {
  return same_dc(a, b) && node(a).rack == node(b).rack;
}

Topology Topology::balanced(std::size_t count, std::size_t dc_count,
                            std::size_t racks_per_dc) {
  HARMONY_CHECK(count > 0);
  HARMONY_CHECK(dc_count > 0 && dc_count <= count);
  HARMONY_CHECK(racks_per_dc > 0);
  Topology topo;
  for (std::size_t d = 0; d < dc_count; ++d) topo.add_datacenter();
  for (std::size_t i = 0; i < count; ++i) {
    const auto dc = static_cast<DcId>(i % dc_count);
    const auto rack = static_cast<RackId>((i / dc_count) % racks_per_dc);
    topo.add_node(dc, rack);
  }
  return topo;
}

}  // namespace harmony::net
