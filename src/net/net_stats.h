// Byte/message accounting by link class. The cost model charges cross-DC
// traffic (AWS bills inter-AZ/inter-region transfer), so the cluster reports
// every message here.
#pragma once

#include <cstdint>
#include <string>

#include "net/topology.h"

namespace harmony::net {

enum class LinkClass : std::uint8_t { kLoopback, kSameRack, kSameDc, kCrossDc };

LinkClass classify(const Topology& topo, NodeId src, NodeId dst);
std::string to_string(LinkClass c);

struct NetStats {
  std::uint64_t messages[4] = {0, 0, 0, 0};
  std::uint64_t bytes[4] = {0, 0, 0, 0};

  void record(LinkClass c, std::uint64_t message_bytes) {
    const auto i = static_cast<std::size_t>(c);
    ++messages[i];
    bytes[i] += message_bytes;
  }

  std::uint64_t total_messages() const {
    return messages[0] + messages[1] + messages[2] + messages[3];
  }
  std::uint64_t total_bytes() const {
    return bytes[0] + bytes[1] + bytes[2] + bytes[3];
  }
  std::uint64_t cross_dc_bytes() const {
    return bytes[static_cast<std::size_t>(LinkClass::kCrossDc)];
  }

  void merge(const NetStats& other) {
    for (std::size_t i = 0; i < 4; ++i) {
      messages[i] += other.messages[i];
      bytes[i] += other.bytes[i];
    }
  }
  void reset() { *this = NetStats{}; }
};

}  // namespace harmony::net
