// Pending-event set for the discrete-event kernel.
//
// Ordering is (time, sequence) so same-instant events run in scheduling order —
// this is what makes whole simulations bit-reproducible from a seed.
//
// Two lanes share one sequence counter and therefore one strict total order:
//
//   * Typed lane (hot): TypedEvent PODs carried *inline* in their 4-ary-heap
//     entries. push is a heap insert, pop hands the POD to a dispatcher —
//     no slab slot, no callback object, no destructor, nothing to recycle.
//     Typed events are non-cancellable by design (the request path's
//     cancellable event — the timeout — stays on the closure lane).
//   * Closure lane (cold, cancellable): callbacks live in a free-listed slab
//     of fixed-size chunks (inline storage via InlineFn — no per-event heap
//     traffic once the slab and heap vectors reach steady-state size), an
//     *indexed* 4-ary min-heap holds plain {time, seq, slot} PODs with each
//     slot tracking its heap position, and handles are {slot, generation}
//     pairs so cancel() stays cheap without shared_ptr bookkeeping.
//     Cancellation removes the entry from the heap *eagerly* (position-
//     indexed delete + one sift): request timeouts are almost always
//     cancelled long before their 2-second expiry, and lazy tombstones would
//     pin tens of thousands of dead entries — and their sift depth and cache
//     footprint — to the heap until expiry.
//
// Each run_before() call pops the earlier of the two lane heads; because seq
// is globally unique across lanes, the merged pop sequence is exactly the
// schedule order, independent of which lane each event rode.
//
// Handle validity: an EventHandle must not be used after its EventQueue is
// destroyed (handles hold a raw queue pointer; in this codebase every handle
// owner also holds the Simulation that owns the queue). A default-constructed
// handle is inert and always safe.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.h"
#include "common/time_types.h"
#include "sim/event.h"

namespace harmony::sim {

/// Inline capacity covers the largest closure-lane capture list (a response
/// delivery: client callback + result). Bigger callables still work via
/// heap fallback.
using EventFn = InlineFn<128>;

class EventQueue;

/// Handle to a scheduled closure-lane event; cancel() is idempotent and safe
/// after firing. Typed-lane events are non-cancellable and yield no handle.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t generation)
      : queue_(q), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Outcome of run_before: an event ran, the queue is drained, or the
  /// earliest live event lies beyond the caller's horizon.
  enum class PopResult : std::uint8_t { kEvent, kEmpty, kLater };

  EventQueue();
  // Non-copyable/non-movable: handles hold stable pointers to this queue.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventHandle push(SimTime when, EventFn fn);

  /// Typed hot lane: the event is copied inline into its heap entry. Not
  /// cancellable; run_before hands it to `dispatch` when its time comes.
  /// The seq was allocated (alloc_seq) on the *sending* shard's queue at
  /// schedule time (that is what makes the cross-shard merge order identical
  /// to the serial schedule order); the destination queue inserts the entry
  /// under that seq. Heap pop order depends only on (when, seq), so
  /// out-of-order stamped inserts at a window barrier are harmless.
  void push_typed_stamped(SimTime when, std::uint64_t seq,
                          const TypedEvent& ev) {
    const std::size_t i = typed_heap_.size();
    typed_heap_.push_back(TypedEntry{when, seq, ev});
    // Most scheduled events land behind their parent (delays accumulate), so
    // test once before paying sift_up's read-modify-write of the new entry.
    if (i > 0 && earlier(typed_heap_[i], typed_heap_[(i - 1) >> 2])) {
      heap_sift_up(typed_heap_, i);
    }
  }

  /// Draw the next sequence number from this queue's stream (see
  /// set_seq_stream). Exposed so a sharded sender can stamp an event that a
  /// *different* shard's queue will store.
  std::uint64_t alloc_seq() {
    const std::uint64_t s = next_seq_;
    next_seq_ += seq_stride_;
    return s;
  }

  /// Interleave this queue's seq stream with its siblings: shard s of K draws
  /// s, s+K, s+2K, ... so seqs are globally unique across shards and the
  /// K-way merged order is a strict total order. The default (0, 1) is the
  /// single-queue stream; with one shard, (0, 1) reproduces it exactly.
  /// Configure before the first push — reconfiguring a live stream would
  /// break the already-issued ordering.
  void set_seq_stream(std::uint64_t offset, std::uint64_t stride) {
    next_seq_ = offset;
    seq_stride_ = stride;
  }

  /// Earliest live (when, seq) across both lanes; false when drained. The
  /// windowed shard executor uses this to pick the next global window start.
  bool peek_next(SimTime& when, std::uint64_t& seq) const {
    if (typed_heap_.empty() && heap_.empty()) return false;
    if (typed_heap_.empty() || (!heap_.empty() && earlier(heap_.front(), typed_heap_.front()))) {
      when = heap_.front().when;
      seq = heap_.front().seq;
    } else {
      when = typed_heap_.front().when;
      seq = typed_heap_.front().seq;
    }
    return true;
  }

  /// The only pop, merging both lanes: pops the earliest live event
  /// at or before `horizon`. `on_event(when, seq)` fires right before the
  /// event runs (the simulation advances its clock there; the seq lets the
  /// sharded executor expose the running event's global sequence). A typed
  /// event is copied
  /// out and handed to `dispatch`; a closure runs *in place* in its slab
  /// slot — no move-out, no extra destructor. The closure slot's generation
  /// is bumped before invoking, so a handle cancelled from inside its own
  /// callback is an inert no-op, and the slot only returns to the free list
  /// after the callback finishes (reentrant push never reuses the executing
  /// slot; chunked storage keeps its address stable even while the slab
  /// grows).
  template <typename OnEvent, typename Dispatch>
  PopResult run_before(SimTime horizon, OnEvent&& on_event, Dispatch&& dispatch) {
    if (!typed_heap_.empty() &&
        (heap_.empty() || earlier(typed_heap_.front(), heap_.front()))) {
      if (typed_heap_.front().when > horizon) return PopResult::kLater;
      const TypedEntry top = typed_heap_.front();  // copy: dispatch may push
      heap_pop_top(typed_heap_);
      on_event(top.when, top.seq);
      dispatch(top.ev);
      return PopResult::kEvent;
    }
    if (heap_.empty()) return PopResult::kEmpty;
    if (heap_.front().when > horizon) return PopResult::kLater;
    const HeapEntry top = heap_.front();
    heap_pop_top(heap_);
    Slot& sl = slot(top.slot);
    ++sl.generation;  // fired: outstanding handles go stale now
    // Scope guard: reclaim the slot (and destroy the callback's captures)
    // even if the callback throws out of the event loop.
    struct Reclaim {
      EventQueue* q;
      std::uint32_t s;
      ~Reclaim() {
        Slot& sl = q->slot(s);
        sl.fn.reset();
        sl.next_free = q->free_head_;
        q->free_head_ = s;
      }
    } reclaim{this, top.slot};
    on_event(top.when, top.seq);
    sl.fn();
    return PopResult::kEvent;
  }

  bool empty() const;
  /// Queued events across both lanes (cancelled entries leave immediately).
  std::size_t size() const { return heap_.size() + typed_heap_.size(); }

 private:
  friend class EventHandle;

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Cache-line-sized and -aligned: when(8) + seq(8) + ev(48) = 64, so every
  /// sift move touches exactly one line.
  struct alignas(64) TypedEntry {
    SimTime when;
    std::uint64_t seq;
    TypedEvent ev;
  };
  static_assert(sizeof(TypedEntry) == 64);
  /// Strict total order (seq is unique across both lanes): the merged pop
  /// sequence is fully determined, independent of heap layout and lane.
  template <typename A, typename B>
  static bool earlier(const A& a, const B& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // Both lanes use the same 4-ary min-heap shape: half the sift depth of a
  // binary heap, and a node's four children sit in adjacent memory, so the
  // per-level cache miss that dominates pop cost covers all of them at once.
  // Every entry store goes through the place() overloads below, which is
  // where the closure lane maintains Slot::heap_pos (typed entries need no
  // bookkeeping) — one sift implementation serves both lanes.
  void place(std::vector<TypedEntry>& h, std::size_t i, const TypedEntry& e) {
    h[i] = e;
  }
  void place(std::vector<HeapEntry>& h, std::size_t i, const HeapEntry& e) {
    h[i] = e;
    slot(e.slot).heap_pos = static_cast<std::uint32_t>(i);
  }

  template <typename E>
  void heap_sift_up(std::vector<E>& h, std::size_t i) {
    const E e = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, h[parent])) break;
      place(h, i, h[parent]);
      i = parent;
    }
    place(h, i, e);
  }

  template <typename E>
  void heap_sift_down(std::vector<E>& h, std::size_t i) {
    const std::size_t n = h.size();
    const E e = h[i];
    while (true) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + 4 <= n) {
        // Full node (the common case): fixed three-compare tournament the
        // compiler can unroll, over four entries sharing adjacent cache lines.
        if (earlier(h[first + 1], h[best])) best = first + 1;
        if (earlier(h[first + 2], h[best])) best = first + 2;
        if (earlier(h[first + 3], h[best])) best = first + 3;
      } else {
        for (std::size_t c = first + 1; c < n; ++c) {
          if (earlier(h[c], h[best])) best = c;
        }
      }
      if (!earlier(h[best], e)) break;
      place(h, i, h[best]);
      i = best;
    }
    place(h, i, e);
  }

  template <typename E>
  void heap_pop_top(std::vector<E>& h) {
    const E last = h.back();
    h.pop_back();
    if (!h.empty()) {
      place(h, 0, last);
      heap_sift_down(h, 0);
    }
  }

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNil;
    std::uint32_t heap_pos = kNil;  ///< index in heap_ while queued
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  // Slots live in fixed-size chunks: growth never moves existing slots (no
  // relocation of in-flight callbacks, stable addresses for the free list).
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  Slot& slot(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  std::uint32_t acquire_slot();
  /// Destroy the slot's callback, invalidate outstanding handles (generation
  /// bump), and return the slot to the free list. The slot's heap entry, if
  /// any, must already have been removed.
  void release_slot(std::uint32_t slot);
  /// Handle cancel: eagerly delete the slot's heap entry, then recycle it.
  void cancel_slot(std::uint32_t s) {
    closure_remove_at(slot(s).heap_pos);
    release_slot(s);
  }
  bool slot_live(std::uint32_t s, std::uint32_t generation) const {
    return slot(s).generation == generation;
  }

  /// Eager cancellation: replace the closure entry at `i` with the heap's
  /// last entry and restore the invariant in whichever direction it moved.
  void closure_remove_at(std::size_t i) {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(heap_, i, last);
    if (i > 0 && earlier(heap_[i], heap_[(i - 1) >> 2])) {
      heap_sift_up(heap_, i);
    } else {
      heap_sift_down(heap_, i);
    }
  }

  std::vector<HeapEntry> heap_;         // closure lane (live entries only)
  std::vector<TypedEntry> typed_heap_;  // typed lane (never cancelled)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::uint64_t seq_stride_ = 1;
};

inline void EventHandle::cancel() {
  if (queue_ == nullptr) return;
  if (queue_->slot_live(slot_, generation_)) queue_->cancel_slot(slot_);
  queue_ = nullptr;
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_live(slot_, generation_);
}

}  // namespace harmony::sim
