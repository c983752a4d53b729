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
//     traffic, four words whatever its key count. A base key is copied into
//     the table the first time a write reaches it (copy-on-write), so the
//     table holds only the keys the run writes.
// The base knows no placement: it holds every key below its count. A store
// is asked only about keys its node replicates (every Cluster read, write,
// repair and hint targets replicas_for(key)), so that is exact wherever it
// is asked (docs/INVARIANTS.md, "Immutable placement and the preload
// base"). The counters count only what a store holds beyond its base; the
// base's own bytes are Cluster::storage_bytes()'s closed form.
#pragma once

#include <cstdint>
#include <optional>

#include "cluster/versioned_value.h"
#include "common/flat_table.h"

namespace harmony::cluster {

/// The preloaded dataset as a replica holds it: every key below count, key
/// k at {{0, seq0 + k * stride}, size}.
struct PreloadBase {
  std::uint64_t count = 0;
  std::uint64_t seq0 = 0;
  std::uint64_t stride = 0;
  std::uint32_t size = 0;

  bool contains(Key key) const { return key < count; }
  VersionedValue value(Key key) const {
    return {Version{0, seq0 + key * stride}, size};
  }
};

class ReplicaStore {
 public:
  /// LWW-apply a write; returns true if it superseded the stored version.
  bool apply(Key key, const VersionedValue& value);

  std::optional<VersionedValue> read(Key key) const;

  /// Install the preload base. The store must be empty().
  void set_base(const PreloadBase& base);

  /// No base and no written key.
  bool empty() const { return base_.count == 0 && table_.empty(); }

  /// Keys held beyond the base: written keys at or above its count.
  std::size_t key_count() const { return table_.size() - base_copies_; }
  /// Bytes held beyond the base: those keys' values, plus each written base
  /// key's size change, modulo 2^64 (a write that shrinks a base key takes
  /// bytes off).
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
  std::uint64_t base_copies_ = 0;  ///< base keys copied into table_
};

}  // namespace harmony::cluster
