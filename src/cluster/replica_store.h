// Per-node key/value storage with last-write-wins reconciliation.
//
// Values are metadata-only (version + size): the experiments measure
// consistency, latency and cost, none of which depend on payload bytes, and
// dropping payloads lets a laptop-scale simulation carry millions of keys.
//
// Two layers, read top-down:
//   * a common/flat_table.h open-addressing table (32-byte entries beside
//     one control byte a slot, probed eight slots at a time, grown at 7/8
//     load, never-erase) holding every key a write, repair or hint has
//     reached — no per-insert allocation between growth doublings;
//   * a read-only preload base (PreloadBase): the dataset loaded before
//     traffic, one bit per key this node replicates plus the closed-form
//     version the load gave it. A base key is copied into the table the
//     first time a write reaches it (copy-on-write), so the table holds only
//     the keys the run writes: 2M records on 12 nodes at rf 3 cost 250 KB
//     of bitmap per node instead of a 64 MiB table.
// Counters treat base keys exactly as if each had been applied as a write,
// so key_count(), stored_bytes() and the bill are the same either way.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/versioned_value.h"
#include "common/flat_table.h"

namespace harmony::cluster {

/// The preloaded dataset as one node holds it. Key k is in the base iff
/// k < count and bit k is set; its value is {{0, seq0 + k * stride}, size}.
struct PreloadBase {
  std::uint64_t count = 0;
  std::uint64_t seq0 = 0;
  std::uint64_t stride = 0;
  std::uint32_t size = 0;
  std::vector<std::uint64_t> bits;  ///< ceil(count / 64) words

  bool contains(Key key) const {
    return key < count && ((bits[key >> 6] >> (key & 63)) & 1) != 0;
  }
  VersionedValue value(Key key) const {
    return {Version{0, seq0 + key * stride}, size};
  }
};

class ReplicaStore {
 public:
  /// LWW-apply a write; returns true if it superseded the stored version.
  bool apply(Key key, const VersionedValue& value);

  std::optional<VersionedValue> read(Key key) const;

  /// Install the preload base. The store must be empty (no base, no key).
  void set_base(PreloadBase base);

  std::size_t key_count() const { return table_.size() + base_unwritten_; }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t writes_superseded() const { return writes_superseded_; }

  /// Drop every key, the base included, and zero the counters.
  void clear();

 private:
  FlatTable<VersionedValue> table_{1024};
  std::uint64_t stored_bytes_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_applied_ = 0;
  std::uint64_t writes_superseded_ = 0;
  PreloadBase base_;
  std::uint64_t base_unwritten_ = 0;  ///< base keys not yet in table_
};

}  // namespace harmony::cluster
