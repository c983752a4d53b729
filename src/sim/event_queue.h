// Pending-event set for the discrete-event kernel.
//
// Ordering is (time, sequence) so same-instant events run in scheduling order —
// this is what makes whole simulations bit-reproducible from a seed.
//
// Two lanes share one sequence counter and therefore one strict total order:
//
//   * Typed lane (hot): TypedEvent PODs carried *inline* in a timing-wheel
//     node, or in a far-tier heap entry when they lie beyond the wheel's
//     span. The wheel has one slot per microsecond over [base, base +
//     kWheelSpan), where base is the time of the last typed pop. A slot
//     holds its instant's events in a list sorted by seq, so a push appends
//     (or, for a stamped seq older than the slot's tail, inserts in order),
//     and a pop unlinks the head of the earliest occupied slot, which a
//     two-level occupancy bitmap finds in a few ctz steps. Events at or
//     past base + kWheelSpan wait in a 4-ary heap, the far tier, and move
//     into the wheel as soon as the base comes within a span of them, so
//     every far event is later than every wheel event. No slab slot, no
//     callback object, no destructor, nothing to recycle. Typed events are
//     non-cancellable by design (the request path's cancellable event — the
//     timeout — stays on the closure lane).
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
// schedule order, independent of which lane, tier or slot each event rode.
//
// Handle validity: an EventHandle must not be used after its EventQueue is
// destroyed (handles hold a raw queue pointer; in this codebase every handle
// owner also holds the Simulation that owns the queue). A default-constructed
// handle is inert and always safe.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
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

  /// Typed hot lane: the event is copied inline into a wheel node (or a
  /// far-tier entry). Not cancellable; run_before hands it to `dispatch`
  /// when its time comes. The seq was allocated (alloc_seq) on the
  /// *sending* shard's queue at schedule time (that is what makes the
  /// cross-shard merge order identical to the serial schedule order); the
  /// destination queue inserts the event under that seq. A slot keeps its
  /// events sorted by seq, so out-of-order stamped inserts at a window
  /// barrier are harmless. `when` may not precede the last typed pop.
  void push_typed_stamped(SimTime when, std::uint64_t seq,
                          const TypedEvent& ev) {
    HARMONY_CHECK_MSG(when >= base_,
                      "typed event dated before the last typed pop");
    if (when < wheel_end_) {
      wheel_insert(when, seq, ev);
    } else {
      far_push(TypedEntry{when, seq, ev});
    }
    if (earlier(Head{when, seq}, head_)) head_ = Head{when, seq};
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
  /// windowed shard executor calls this for every shard in every window, so
  /// the typed lane answers from its cached head, never from a scan.
  bool peek_next(SimTime& when, std::uint64_t& seq) const {
    const bool typed = !typed_empty();
    if (!typed && heap_.empty()) return false;
    if (!typed || (!heap_.empty() && earlier(heap_.front(), head_))) {
      when = heap_.front().when;
      seq = heap_.front().seq;
    } else {
      when = head_.when;
      seq = head_.seq;
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
    if (!typed_empty() && (heap_.empty() || earlier(head_, heap_.front()))) {
      if (head_.when > horizon) return PopResult::kLater;
      const Head top = head_;
      const TypedEvent ev = typed_pop();  // a copy: dispatch may push
      on_event(top.when, top.seq);
      dispatch(ev);
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
  std::size_t size() const {
    return heap_.size() + wheel_size_ + typed_heap_.size();
  }

 private:
  friend class EventHandle;

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// A far-tier entry. Cache-line-sized and -aligned: when(8) + seq(8) +
  /// ev(48) = 64, so every sift move touches exactly one line.
  struct alignas(64) TypedEntry {
    SimTime when;
    std::uint64_t seq;
    TypedEvent ev;
  };
  static_assert(sizeof(TypedEntry) == 64);
  /// A wheel node, one cache line. Its `when` follows from its slot and the
  /// base. `next` links the slot's circular list (or the free list).
  struct alignas(64) WheelNode {
    std::uint64_t seq;
    std::uint32_t next;
    TypedEvent ev;
  };
  static_assert(sizeof(WheelNode) == 64);
  /// The typed lane's earliest (when, seq); kNoHead while the lane is empty.
  struct Head {
    SimTime when;
    std::uint64_t seq;
  };
  static constexpr Head kNoHead{std::numeric_limits<SimTime>::max(),
                                std::numeric_limits<std::uint64_t>::max()};

  // The wheel spans 2^14 µs (16.4 ms): one slot per microsecond, so a slot
  // holds one instant. bench/README.md ("Timing-wheel typed lane") gives
  // the delay histogram behind the span.
  static constexpr unsigned kWheelBits = 14;
  static constexpr std::uint32_t kWheelSlots = 1u << kWheelBits;
  static constexpr std::uint32_t kWheelMask = kWheelSlots - 1;
  static constexpr SimDuration kWheelSpan = kWheelSlots;
  // Occupancy: one bit per slot, and one summary bit per 64-slot word.
  static constexpr std::uint32_t kWheelWords = kWheelSlots / 64;
  static constexpr std::uint32_t kSummaryWords = kWheelWords / 64;
  static constexpr std::uint32_t kNoWord = kWheelWords;
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

  // ---- typed lane: the wheel and its far tier ------------------------------

  bool typed_empty() const { return wheel_size_ == 0 && typed_heap_.empty(); }
  static std::uint32_t slot_of(SimTime when) {
    return static_cast<std::uint32_t>(when) & kWheelMask;
  }

  void far_push(const TypedEntry& e) {
    const std::size_t i = typed_heap_.size();
    typed_heap_.push_back(e);
    // Most scheduled events land behind their parent (delays accumulate), so
    // test once before paying sift_up's read-modify-write of the new entry.
    if (i > 0 && earlier(typed_heap_[i], typed_heap_[(i - 1) >> 2])) {
      heap_sift_up(typed_heap_, i);
    }
  }

  std::uint32_t alloc_node() {
    if (free_node_ == kNil) return grow_nodes();
    const std::uint32_t n = free_node_;
    free_node_ = nodes_[n].next;
    return n;
  }
  std::uint32_t grow_nodes();

  /// Link the event into its slot (which must lie inside the span), keeping
  /// the slot's list sorted by seq. slot_tail_[s] names the list's last
  /// node, and the last node's `next` is the first, so an in-order push
  /// appends and a pop takes the first node, both in O(1).
  void wheel_insert(SimTime when, std::uint64_t seq, const TypedEvent& ev) {
    const std::uint32_t n = alloc_node();
    nodes_[n].seq = seq;
    nodes_[n].ev = ev;
    const std::uint32_t s = slot_of(when);
    std::uint64_t& word = occupied_[s >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if ((word & bit) == 0) {
      word |= bit;
      summary_[s >> 12] |= std::uint64_t{1} << ((s >> 6) & 63);
      nodes_[n].next = n;
      slot_tail_[s] = n;
    } else {
      const std::uint32_t tail = slot_tail_[s];
      if (nodes_[tail].seq < seq) {
        // Serial pushes draw increasing seqs: append.
        nodes_[n].next = nodes_[tail].next;
        nodes_[tail].next = n;
        slot_tail_[s] = n;
      } else {
        // A stamped seq (mailbox drain, far-tier move) older than the
        // tail: insert before the first node with a larger seq.
        std::uint32_t prev = tail;
        std::uint32_t cur = nodes_[tail].next;
        while (nodes_[cur].seq < seq) {
          prev = cur;
          cur = nodes_[cur].next;
        }
        nodes_[n].next = cur;
        nodes_[prev].next = n;
      }
    }
    ++wheel_size_;
  }

  /// First occupied word at or after `w`, without wrapping; kNoWord if none.
  std::uint32_t occupied_word_from(std::uint32_t w) const {
    if (w >= kWheelWords) return kNoWord;
    std::uint32_t sw = w >> 6;
    std::uint64_t bits = summary_[sw] & (~std::uint64_t{0} << (w & 63));
    while (bits == 0) {
      if (++sw == kSummaryWords) return kNoWord;
      bits = summary_[sw];
    }
    return (sw << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
  }

  /// First occupied slot at or after `from` in ring order (wrapping past
  /// the last slot). The wheel must not be empty.
  std::uint32_t next_occupied(std::uint32_t from) const {
    const std::uint32_t w = from >> 6;
    const std::uint64_t bits =
        occupied_[w] & (~std::uint64_t{0} << (from & 63));
    if (bits != 0) {
      return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    std::uint32_t nw = occupied_word_from(w + 1);
    if (nw == kNoWord) nw = occupied_word_from(0);  // wrap: may be `w` itself
    return (nw << 6) |
           static_cast<std::uint32_t>(std::countr_zero(occupied_[nw]));
  }

  /// Recompute the cached head after a pop emptied the head's slot: the
  /// first occupied slot from the base's, else the far top.
  void refresh_head() {
    if (wheel_size_ != 0) {
      const std::uint32_t from = slot_of(base_);
      const std::uint32_t s = next_occupied(from);
      head_ = Head{base_ + ((s - from) & kWheelMask),
                   nodes_[nodes_[slot_tail_[s]].next].seq};
    } else if (!typed_heap_.empty()) {
      head_ = Head{typed_heap_.front().when, typed_heap_.front().seq};
    } else {
      head_ = kNoHead;
    }
  }

  /// Remove and return the typed head (the lane must not be empty). The
  /// base moves to its time, far events the span now covers move into the
  /// wheel, and the cached head is brought up to date.
  TypedEvent typed_pop() {
    const SimTime when = head_.when;
    TypedEvent ev;
    std::uint32_t rest = kNil;  // the slot's new first node, if any
    if (wheel_size_ != 0) {
      const std::uint32_t s = slot_of(when);
      const std::uint32_t tail = slot_tail_[s];
      const std::uint32_t first = nodes_[tail].next;
      ev = nodes_[first].ev;
      if (first == tail) {
        std::uint64_t& word = occupied_[s >> 6];
        word &= ~(std::uint64_t{1} << (s & 63));
        if (word == 0) {
          summary_[s >> 12] &= ~(std::uint64_t{1} << ((s >> 6) & 63));
        }
      } else {
        rest = nodes_[first].next;
        nodes_[tail].next = rest;
      }
      nodes_[first].next = free_node_;
      free_node_ = first;
      --wheel_size_;
    } else {
      ev = typed_heap_.front().ev;
      heap_pop_top(typed_heap_);
    }
    if (when != base_) {
      base_ = when;
      wheel_end_ = when > std::numeric_limits<SimTime>::max() - kWheelSpan
                       ? std::numeric_limits<SimTime>::max()
                       : when + kWheelSpan;
      // Keep every far event later than every wheel event.
      while (!typed_heap_.empty() && typed_heap_.front().when < wheel_end_) {
        const TypedEntry e = typed_heap_.front();
        heap_pop_top(typed_heap_);
        wheel_insert(e.when, e.seq, e.ev);
      }
    }
    if (rest != kNil) {
      // Same instant, next seq: the far moves above are all later.
      head_.seq = nodes_[rest].seq;
    } else {
      refresh_head();
    }
    return ev;
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

  std::vector<HeapEntry> heap_;  // closure lane (live entries only)

  // Typed lane. The cached head is written by the thread that pushes or
  // pops (a shard's worker inside a window) and read by peek_next (the
  // control thread between windows); the window handoff orders the two.
  Head head_ = kNoHead;
  SimTime base_ = 0;              // time of the last typed pop
  SimTime wheel_end_ = kWheelSpan;  // base_ + kWheelSpan, saturated
  std::uint32_t wheel_size_ = 0;
  std::uint32_t free_node_ = kNil;
  std::vector<WheelNode> nodes_;
  /// Last node of each slot's list; read only while the slot's occupancy
  /// bit is set, so it is never filled.
  std::unique_ptr<std::uint32_t[]> slot_tail_;
  std::uint64_t occupied_[kWheelWords] = {};
  std::uint64_t summary_[kSummaryWords] = {};
  std::vector<TypedEntry> typed_heap_;  // the far tier

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
