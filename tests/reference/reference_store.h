// Naive reference twin of cluster/replica_store.h for the differential
// harness.
//
// Models the store before it had a preload base: an ordered map that loads
// every preloaded key as an explicit last-write-wins apply of its
// closed-form version {0, seq0 + k * stride}. The harness drives both stores
// through the same schedule and demands identical reads and apply results,
// and counters that differ by exactly the base (the store counts only what
// it holds beyond it) — the copy-on-write base must be unobservable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "cluster/versioned_value.h"

namespace harmony::testing {

class ReferenceStore {
 public:
  /// Explicitly apply {0, seq0 + k * stride} of `size` bytes for every
  /// k < count.
  void load(std::uint64_t count, std::uint64_t seq0, std::uint64_t stride,
            std::uint32_t size) {
    for (std::uint64_t k = 0; k < count; ++k) {
      apply(k, {cluster::Version{0, seq0 + k * stride}, size});
    }
  }

  bool apply(cluster::Key key, const cluster::VersionedValue& value) {
    const auto it = map_.find(key);
    if (it == map_.end() || value.version.newer_than(it->second.version)) {
      if (it != map_.end()) stored_bytes_ -= it->second.size_bytes;
      stored_bytes_ += value.size_bytes;
      map_[key] = value;
      ++writes_applied_;
      return true;
    }
    ++writes_superseded_;
    return false;
  }

  std::optional<cluster::VersionedValue> read(cluster::Key key) {
    ++reads_;
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  void clear() { *this = ReferenceStore{}; }

  std::size_t key_count() const { return map_.size(); }
  std::uint64_t stored_bytes() const { return stored_bytes_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t writes_superseded() const { return writes_superseded_; }

 private:
  std::map<cluster::Key, cluster::VersionedValue> map_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_applied_ = 0;
  std::uint64_t writes_superseded_ = 0;
};

}  // namespace harmony::testing
