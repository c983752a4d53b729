// Hinted handoff: when a replica is down at write time, the coordinator keeps
// a "hint" (the mutation plus its target) and replays it once the target comes
// back, restoring the replica without a full repair — as in Cassandra.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/versioned_value.h"
#include "net/topology.h"

namespace harmony::cluster {

class HintStore {
 public:
  struct Hint {
    Key key;
    VersionedValue value;
  };

  void add(net::NodeId target, Key key, const VersionedValue& value) {
    hints_[target].push_back({key, value});
    ++stored_;
  }

  /// Remove and return all hints destined for `target`.
  std::vector<Hint> take(net::NodeId target) {
    auto it = hints_.find(target);
    if (it == hints_.end()) return {};
    std::vector<Hint> out = std::move(it->second);
    hints_.erase(it);
    replayed_ += out.size();
    return out;
  }

  std::size_t pending(net::NodeId target) const {
    const auto it = hints_.find(target);
    return it == hints_.end() ? 0 : it->second.size();
  }
  std::uint64_t stored() const { return stored_; }
  std::uint64_t replayed() const { return replayed_; }

 private:
  std::unordered_map<net::NodeId, std::vector<Hint>> hints_;
  std::uint64_t stored_ = 0;
  std::uint64_t replayed_ = 0;
};

}  // namespace harmony::cluster
