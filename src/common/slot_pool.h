// Free-listed slot pool with generation-checked handles.
//
// The cluster request path keeps one in-flight record per client request; a
// std::unordered_map pays a node allocation plus hashing on every touch. This
// pool mirrors sim::EventQueue's design: records live in a chunked slab that
// never relocates (growth appends chunks), freed slots go on a LIFO free list,
// and a Handle is a {slot, generation} pair. Releasing a slot bumps its
// generation, so a handle captured by a late callback (a timeout firing after
// its request completed, an ack racing a kill) dereferences to nullptr instead
// of a recycled occupant — the same "id not found" semantics the map gave,
// without the hash or the heap.
//
// Growth contract. The slab is a fixed directory of chunk pointers; chunk c
// holds 64·2^c slots, so slot i sits in the chunk named by the top bit of
// i + 64, and 27 chunks cover every 32-bit slot index. acquire() grows the
// slab only when the free list is empty, by constructing the next never-used
// slot (allocating its chunk first if the slot opens one). Growth moves
// neither a chunk nor a directory entry that names a handed-out slot, so a
// record's address is stable until its release. One thread owns the pool:
// only it acquires and releases. Another thread may get() a live record, and
// read what the owner does not write while the record is live, as long as
// the handle reached it through a handoff that synchronizes with the owner
// after the acquire (the sharded executor's mailboxes are one; see
// docs/INVARIANTS.md, "Remote pool reads"). Growth on the owner meanwhile
// writes only later chunks, later directory entries and slot_count_.
//
// Steady state performs zero allocations: once the slab has grown to the peak
// concurrent-request count, acquire/release is a free-list pop/push.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"

namespace harmony {

template <typename T>
class SlotPool {
 public:
  /// Trivially copyable; safe to capture by value in event callbacks. A
  /// default-constructed handle never resolves.
  struct Handle {
    std::uint32_t slot = kNil;
    std::uint32_t generation = 0;
  };

  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  ~SlotPool() {
    const std::uint32_t n = slot_count_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n; ++i) std::destroy_at(&slot(i));
    for (std::uint32_t c = 0; c < kMaxChunks && chunks_[c] != nullptr; ++c) {
      std::allocator<Slot>().deallocate(chunks_[c],
                                        std::size_t{kFirstChunk} << c);
    }
  }

  /// Take a fresh (default-state) record; valid until release().
  std::pair<Handle, T*> acquire() {
    std::uint32_t s;
    if (free_head_ != kNil) {
      s = free_head_;
      free_head_ = slot(s).next_free;
    } else {
      s = slot_count_.load(std::memory_order_relaxed);
      const std::uint64_t j = std::uint64_t{s} + kFirstChunk;
      if (std::has_single_bit(j)) {  // s opens a chunk of j slots
        // Warm-up-only growth; steady state reuses the free list
        // (alloc_guard-pinned). Slots are built as they are first handed
        // out, so the unused tail of a chunk is never touched and costs no
        // resident memory.
        chunks_[chunk_of(j)] = std::allocator<Slot>().allocate(j);
      }
      std::construct_at(&slot(s));
      slot_count_.store(s + 1, std::memory_order_relaxed);
    }
    ++live_;
    return {Handle{s, slot(s).generation}, &slot(s).value};
  }

  /// The record for `h`, or nullptr if the slot was released (and possibly
  /// recycled) since: the generation check makes stale handles inert.
  T* get(Handle h) {
    if (h.slot >= slot_count_.load(std::memory_order_relaxed) ||
        slot(h.slot).generation != h.generation) {
      return nullptr;
    }
    return &slot(h.slot).value;
  }

  /// Release a *live* handle: resets the record to default state (dropping
  /// captured callbacks promptly, as the map's erase did), invalidates every
  /// outstanding copy of the handle, and recycles the slot. Types that define
  /// `reset_for_reuse()` reset in place — cheaper than constructing and
  /// move-assigning a default temporary on the request hot path.
  void release(Handle h) {
    HARMONY_CHECK_MSG(h.slot < slot_count_.load(std::memory_order_relaxed) &&
                          slot(h.slot).generation == h.generation,
                      "SlotPool::release of a stale handle");
    Slot& sl = slot(h.slot);
    if constexpr (requires(T& t) { t.reset_for_reuse(); }) {
      sl.value.reset_for_reuse();
    } else {
      sl.value = T{};
    }
    ++sl.generation;
    sl.next_free = free_head_;
    free_head_ = h.slot;
    --live_;
  }

  std::size_t live() const { return live_; }
  /// Slots handed out so far, live or free.
  std::size_t capacity() const {
    return slot_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    T value{};
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNil;
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kFirstShift = 6;
  static constexpr std::uint32_t kFirstChunk = 1u << kFirstShift;
  /// i + kFirstChunk < 2^33 for every 32-bit i, so its top bit is at most 32.
  static constexpr std::uint32_t kMaxChunks = 33 - kFirstShift;

  /// Chunk c starts at slot 64·(2^c − 1) and holds 64·2^c slots. So for
  /// slot i and j = i + 64, the top bit of j names the chunk, the bits below
  /// it are the offset, and a chunk opens exactly when j is a power of two.
  static std::uint32_t chunk_of(std::uint64_t j) {
    return static_cast<std::uint32_t>(std::bit_width(j)) - 1 - kFirstShift;
  }
  Slot& slot(std::uint32_t i) {
    const std::uint64_t j = std::uint64_t{i} + kFirstChunk;
    const std::uint32_t c = chunk_of(j);
    return chunks_[c][j - (std::uint64_t{kFirstChunk} << c)];
  }

  Slot* chunks_[kMaxChunks] = {};
  /// Written only by the owner; read by get() on any thread. Relaxed order
  /// suffices: a thread holding a handle learned it through a handoff that
  /// happens after the store making the slot valid, so every value it can
  /// load already covers the slot. Concurrent growth only raises the count,
  /// and the atomic keeps those stores from racing the reads.
  std::atomic<std::uint32_t> slot_count_{0};
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
};

}  // namespace harmony
