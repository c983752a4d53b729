#include "cluster/replica_store.h"

#include <bit>

#include "common/check.h"

namespace harmony::cluster {

bool ReplicaStore::apply(Key key, const VersionedValue& value) {
  const auto [stored, inserted] = table_.insert(key);
  if (inserted) {
    if (!base_.contains(key)) {
      *stored = value;
      stored_bytes_ += value.size_bytes;
      ++writes_applied_;
      return true;
    }
    // First write to a preloaded key: copy the base version up, then
    // reconcile against it like any stored version.
    *stored = base_.value(key);
    --base_unwritten_;
  }
  if (value.version.newer_than(stored->version)) {
    stored_bytes_ += value.size_bytes;
    stored_bytes_ -= stored->size_bytes;
    *stored = value;
    ++writes_applied_;
    return true;
  }
  // Older than what we have: LWW drops it (Cassandra reconciliation).
  ++writes_superseded_;
  return false;
}

std::optional<VersionedValue> ReplicaStore::read(Key key) const {
  ++reads_;
  if (const VersionedValue* v = table_.find(key)) return *v;
  if (base_.contains(key)) return base_.value(key);
  return std::nullopt;
}

void ReplicaStore::set_base(PreloadBase base) {
  HARMONY_CHECK_MSG(base_.count == 0 && table_.empty(),
                    "a replica store takes its preload base once, empty");
  HARMONY_CHECK(base.bits.size() == (base.count + 63) / 64);
  std::uint64_t keys = 0;
  for (const std::uint64_t w : base.bits) keys += std::popcount(w);
  base_ = std::move(base);
  base_unwritten_ = keys;
  stored_bytes_ += keys * base_.size;
  writes_applied_ += keys;
}

void ReplicaStore::clear() {
  table_.clear();
  base_ = PreloadBase{};
  base_unwritten_ = 0;
  stored_bytes_ = 0;
  reads_ = 0;
  writes_applied_ = 0;
  writes_superseded_ = 0;
}

}  // namespace harmony::cluster
