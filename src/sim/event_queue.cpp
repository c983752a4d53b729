#include "sim/event_queue.h"

#include "common/check.h"

namespace harmony::sim {

EventQueue::EventQueue()
    // Not filled: a slot's entry is read only while its occupancy bit is
    // set, and every Simulation builds a queue.
    : slot_tail_(std::make_unique_for_overwrite<std::uint32_t[]>(kWheelSlots)) {
  heap_.reserve(kChunkSize);
  nodes_.reserve(kChunkSize);
  typed_heap_.reserve(kChunkSize);
}

std::uint32_t EventQueue::grow_nodes() {
  HARMONY_CHECK_MSG(nodes_.size() < kNil, "timing wheel full");
  // Warm-up only: steady state recycles nodes through the free list
  // (alloc_guard-pinned).
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t s = free_head_;
    free_head_ = slot(s).next_free;
    slot(s).next_free = kNil;
    return s;
  }
  HARMONY_CHECK_MSG(slot_count_ < kNil, "event slab full");
  if (slot_count_ == chunks_.size() << kChunkShift) {
    // lint: allow(hot-path-alloc): slab growth is warm-up-only; steady state
    // recycles slots through the free list (alloc_guard-pinned).
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t s) {
  Slot& sl = slot(s);
  sl.fn.reset();
  ++sl.generation;  // invalidates outstanding handles for this slot
  sl.next_free = free_head_;
  free_head_ = s;
}

EventHandle EventQueue::push(SimTime when, EventFn fn) {
  const std::uint32_t s = acquire_slot();
  Slot& sl = slot(s);
  sl.fn = std::move(fn);
  const std::size_t i = heap_.size();
  heap_.push_back(HeapEntry{when, alloc_seq(), s});
  sl.heap_pos = static_cast<std::uint32_t>(i);
  // Most scheduled events land behind their parent (delays accumulate), so
  // test once before paying sift_up's read-modify-write of the new entry.
  if (i > 0 && earlier(heap_[i], heap_[(i - 1) >> 2])) heap_sift_up(heap_, i);
  return EventHandle{this, s, sl.generation};
}

bool EventQueue::empty() const { return heap_.empty() && typed_empty(); }

}  // namespace harmony::sim
