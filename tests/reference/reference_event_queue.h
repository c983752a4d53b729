// Naive reference twin of sim::EventQueue for the differential harness.
//
// One ordered map keyed by (when, seq) holds both lanes: the pop order is the
// map's order, with nothing to keep in sync — no wheel, no slots, no far
// tier, no heaps. Each entry records which lane its event rode and a tag the
// harness chose, so a pop of the real queue can be matched field by field.
// Cancelling erases the entry; cancelling an absent one is a no-op, like a
// stale handle.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "common/time_types.h"

namespace harmony::testing {

class ReferenceEventQueue {
 public:
  enum class Lane : std::uint8_t { kTyped, kClosure };
  enum class Result : std::uint8_t { kEvent, kEmpty, kLater };
  struct Event {
    SimTime when = 0;
    std::uint64_t seq = 0;
    Lane lane = Lane::kTyped;
    std::uint64_t tag = 0;
  };

  void push(SimTime when, std::uint64_t seq, Lane lane, std::uint64_t tag) {
    events_[{when, seq}] = {lane, tag};
  }

  void cancel(SimTime when, std::uint64_t seq) { events_.erase({when, seq}); }

  bool peek(SimTime& when, std::uint64_t& seq) const {
    if (events_.empty()) return false;
    when = events_.begin()->first.first;
    seq = events_.begin()->first.second;
    return true;
  }

  /// Pop the earliest event if it is at or before `horizon`.
  Result run_before(SimTime horizon, Event& out) {
    if (events_.empty()) return Result::kEmpty;
    const auto it = events_.begin();
    if (it->first.first > horizon) return Result::kLater;
    out = Event{it->first.first, it->first.second, it->second.first,
                it->second.second};
    events_.erase(it);
    return Result::kEvent;
  }

  std::size_t size() const { return events_.size(); }

 private:
  std::map<std::pair<SimTime, std::uint64_t>, std::pair<Lane, std::uint64_t>>
      events_;
};

}  // namespace harmony::testing
