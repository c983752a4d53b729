// Open-addressing hash table for never-erased u64 keys.
//
// ReplicaStore and StalenessOracle share it: hash64, power-of-two capacity,
// no erase (and therefore no tombstones) — the same move common/slot_pool.h
// made for the pending-request maps.
//
// Layout: {key, value} entries in one array — with a 24-byte value
// (ReplicaStore's VersionedValue, StalenessOracle's per-key state) an entry
// packs to 32 bytes — and beside it one control byte per slot: 0x80 for an
// empty slot, else the key's tag, the top 7 bits of hash64(key). Only the
// control byte marks a slot empty, so every u64, 0 and ~0 included, is an
// ordinary key.
//
// Probe: slots form aligned groups of eight, whose control bytes load as one
// u64. The low bits of hash64(key) pick the key's home group — disjoint from
// the tag's bits, so keys sharing a group still differ in tag. A SWAR byte
// test (no intrinsics) marks the group's bytes equal to the tag, and a key
// compare checks each mark. The test never misses a tag and never marks an
// empty byte; it can falsely mark a byte only above a true match (where the
// subtraction's borrow crosses into it), and the key compare rejects that.
// From the home group the probe takes triangular steps (+1, +2, +3, ...
// groups), which visit every group once when the group count is a power of
// two, and stops at the first group with an empty byte: keys are never
// erased, so a key is absent once such a group misses it, and insert puts
// it in that group's first empty slot.
//
// Growth: the table doubles when a new key would pass 7/8 load, so one slot
// in eight stays empty and every probe ends. Values are small plain structs,
// copied on growth; they must be cheap to default-construct (empty slots
// hold one). There is no bulk reserve: tables only grow by doubling as keys
// arrive (a preloaded dataset lives in ReplicaStore's closed-form base,
// not here).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace harmony {

/// Defined only by the table's tests, which read the control bytes to check
/// the layout rules above.
template <typename Value>
struct FlatTableTestAccess;

template <typename Value>
class FlatTable {
 public:
  /// `initial_capacity` must be a power of two of at least one group (8
  /// slots); the table allocates lazily on first insert.
  explicit FlatTable(std::size_t initial_capacity = 1024)
      : initial_capacity_(initial_capacity) {
    HARMONY_CHECK_MSG(
        initial_capacity >= kGroup &&
            (initial_capacity & (initial_capacity - 1)) == 0,
        "FlatTable capacity must be a power of two of at least 8");
  }

  /// The value for `key`, inserting a default-constructed one on miss.
  /// Returns {value, true} when this call inserted it. The pointer is valid
  /// until the next insert (growth moves entries).
  std::pair<Value*, bool> insert(std::uint64_t key) {
    const std::uint64_t h = hash64(key);
    std::size_t i = 0;
    if (!ctrl_.empty()) {
      i = seek(h, key);
      if (ctrl_[i] != kEmpty) return {&entries_[i].value, false};
    }
    // A new key: grow first if it would pass 7/8 load (or on first use).
    if (used_ == ctrl_.size() - ctrl_.size() / 8) {
      grow();
      i = seek(h, key);
    }
    ctrl_[i] = tag(h);
    entries_[i].key = key;
    ++used_;
    return {&entries_[i].value, true};
  }

  Value* find(std::uint64_t key) {
    if (ctrl_.empty()) return nullptr;
    const std::size_t i = seek(hash64(key), key);
    return ctrl_[i] == kEmpty ? nullptr : &entries_[i].value;
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// Bytes per table slot (key plus value), for layout static_asserts.
  static constexpr std::size_t entry_bytes() { return sizeof(Entry); }

  /// Keys present (never decreases: keys are never erased).
  std::size_t size() const { return used_; }
  bool empty() const { return used_ == 0; }

  void clear() {
    entries_.clear();
    ctrl_.clear();
    used_ = 0;
  }

 private:
  friend struct FlatTableTestAccess<Value>;

  static constexpr std::size_t kGroup = 8;  // slots per control word
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::uint64_t kLsb = 0x0101010101010101ull;
  static constexpr std::uint64_t kMsb = 0x8080808080808080ull;

  struct Entry {
    std::uint64_t key = 0;
    Value value{};
  };

  static std::uint8_t tag(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }

  /// Group g's control bytes as one word, slot 8g + j in bits [8j, 8j + 8).
  std::uint64_t group(std::size_t g) const {
    const std::uint8_t* p = ctrl_.data() + g * kGroup;
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, p, sizeof w);
    } else {
      for (std::size_t j = 0; j < kGroup; ++j) {
        w |= std::uint64_t{p[j]} << (8 * j);
      }
    }
    return w;
  }

  /// Index of the lowest slot whose byte has its top bit set in `m`.
  static std::size_t first(std::uint64_t m) {
    return static_cast<std::size_t>(std::countr_zero(m)) / 8;
  }

  /// The slot holding `key` (hash `h`), or else the empty slot where insert
  /// puts it. The table must be allocated.
  std::size_t seek(std::uint64_t h, std::uint64_t key) const {
    const std::size_t mask = ctrl_.size() / kGroup - 1;
    const std::uint64_t tags = kLsb * tag(h);
    std::size_t g = static_cast<std::size_t>(h) & mask;
    for (std::size_t step = 1;; ++step) {
      const std::uint64_t word = group(g);
      // Bytes equal to the tag become zero; the classic zero-byte test
      // marks them. Empty bytes (0x80 ^ tag) keep their top bit, which the
      // `& ~x` term clears, so they are never marked.
      const std::uint64_t x = word ^ tags;
      for (std::uint64_t m = (x - kLsb) & ~x & kMsb; m != 0; m &= m - 1) {
        const std::size_t i = g * kGroup + first(m);
        if (entries_[i].key == key) return i;
      }
      if (const std::uint64_t empty = word & kMsb) {
        return g * kGroup + first(empty);
      }
      g = (g + step) & mask;
    }
  }

  void grow() {
    const std::size_t capacity =
        ctrl_.empty() ? initial_capacity_ : ctrl_.size() * 2;
    const std::vector<Entry> old_entries =
        std::exchange(entries_, std::vector<Entry>(capacity));
    const std::vector<std::uint8_t> old_ctrl =
        std::exchange(ctrl_, std::vector<std::uint8_t>(capacity, kEmpty));
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == kEmpty) continue;
      const std::uint64_t key = old_entries[i].key;
      const std::size_t j = seek(hash64(key), key);
      ctrl_[j] = old_ctrl[i];
      entries_[j] = old_entries[i];
    }
  }

  std::vector<Entry> entries_;       // power-of-two; empty until first insert
  std::vector<std::uint8_t> ctrl_;   // one control byte per entry
  std::size_t used_ = 0;             // keys present
  std::size_t initial_capacity_;
};

}  // namespace harmony
