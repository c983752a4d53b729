// Open-addressing hash table for never-erased u64 keys.
//
// ReplicaStore and StalenessOracle each hand-rolled the same table: hash64,
// linear probing, power-of-two capacity, growth at 50% load, no erase (and
// therefore no tombstones). This header is that table, factored once — the
// same move common/slot_pool.h made for the pending-request maps.
//
// Layout: entries are {key, value} with an all-ones key sentinel marking
// empty slots, so a slot costs no separate `used` flag — with a 24-byte
// value (ReplicaStore's VersionedValue, StalenessOracle's per-key state) an
// entry packs to 32 bytes, two per cache line on the probe path. The
// sentinel key itself is still a legal key: it lives in a dedicated side
// slot instead of the table.
//
// Values are small plain structs, copied on growth; they must be cheap to
// default-construct (empty slots hold one). There is no bulk reserve:
// tables only grow by doubling as keys arrive (a preloaded dataset lives in
// ReplicaStore's bitmap base, not here).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace harmony {

template <typename Value>
class FlatTable {
 public:
  /// `initial_capacity` must be a power of two (masked probing would
  /// otherwise skip slots and insert() could spin); the table allocates
  /// lazily on first insert.
  explicit FlatTable(std::size_t initial_capacity = 1024)
      : initial_capacity_(initial_capacity) {
    HARMONY_CHECK_MSG(
        initial_capacity > 0 &&
            (initial_capacity & (initial_capacity - 1)) == 0,
        "FlatTable capacity must be a power of two");
  }

  /// The value for `key`, inserting a default-constructed one on miss.
  /// Returns {value, true} when this call inserted it. The pointer is valid
  /// until the next insert (growth moves entries).
  std::pair<Value*, bool> insert(std::uint64_t key) {
    if (key == kEmptyKey) {
      const bool inserted = !has_sentinel_;
      has_sentinel_ = true;
      return {&sentinel_value_, inserted};
    }
    // Grow at 50% load *before* probing so the insert below always finds a
    // free slot in a healthy probe sequence.
    if ((used_ + 1) * 2 > table_.size()) grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash64(key)) & mask;
    while (table_[i].key != kEmptyKey) {
      if (table_[i].key == key) return {&table_[i].value, false};
      i = (i + 1) & mask;
    }
    table_[i].key = key;
    ++used_;
    return {&table_[i].value, true};
  }

  Value* find(std::uint64_t key) {
    if (key == kEmptyKey) return has_sentinel_ ? &sentinel_value_ : nullptr;
    if (table_.empty()) return nullptr;
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash64(key)) & mask;
    while (table_[i].key != kEmptyKey) {
      if (table_[i].key == key) return &table_[i].value;
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// Bytes per table slot (key plus value), for layout static_asserts.
  static constexpr std::size_t entry_bytes() { return sizeof(Entry); }

  /// Keys present (never decreases: keys are never erased).
  std::size_t size() const { return used_ + (has_sentinel_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  void clear() {
    table_.clear();
    used_ = 0;
    has_sentinel_ = false;
    sentinel_value_ = Value{};
  }

 private:
  /// Empty-slot marker. A real key with this value is legal — it just lives
  /// in `sentinel_value_` instead of the table.
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  struct Entry {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  void grow() {
    std::vector<Entry> old;
    old.swap(table_);
    table_.resize(old.empty() ? initial_capacity_ : old.size() * 2);
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.key == kEmptyKey) continue;
      std::size_t i = static_cast<std::size_t>(hash64(e.key)) & mask;
      while (table_[i].key != kEmptyKey) i = (i + 1) & mask;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;  // power-of-two; empty until first insert
  std::size_t used_ = 0;      // table-resident keys (excludes the sentinel)
  std::size_t initial_capacity_;
  bool has_sentinel_ = false;
  Value sentinel_value_{};
};

}  // namespace harmony
