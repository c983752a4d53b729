// Sharded parallel execution for one Simulation.
//
// A Simulation can be partitioned into K event shards (the cluster layer maps
// one datacenter to one shard). Each shard owns a full two-lane EventQueue, a
// clock, and everything the handlers it runs will touch; shards only interact
// through *scheduled events* whose network delay is at least `lookahead` (the
// minimum cross-DC link latency). That bound is the classic conservative-
// simulation guarantee (Chandy–Misra–Bryant): while every shard's clock sits
// inside the window [T, T + lookahead), no shard can receive a new event
// dated inside that window, so all K shards may run the window concurrently
// with no communication at all.
//
// Determinism is the hard requirement, and it reduces to one rule: the merged
// execution must equal the K-queue serial merge by (time, seq). Three
// mechanisms make that hold bit-for-bit regardless of thread count:
//
//   1. Interleaved seq streams. Shard s draws sequence numbers s, s+K,
//      s+2K, ... (EventQueue::set_seq_stream), so (time, seq) is a strict
//      total order across all shards without any cross-shard coordination.
//   2. Sender-stamped cross-shard events. An event destined for another
//      shard gets its seq from the *sender's* counter at schedule time —
//      exactly the seq it would have received in the serial merge — and
//      rides a fixed-capacity mailbox that the control thread drains into
//      the destination heap at the next window barrier. Heap pop order
//      depends only on (time, seq), so drain order is irrelevant.
//   3. Fences. Operations that touch cross-shard state (fault injection:
//      kill/revive/degrade) register their instant as a fence; the executor
//      never lets a window span a fence and runs the fence instant in
//      merged-serial mode on one thread.
//
// With K > 1 shards and num_threads == 1 the executor runs everything
// merged-serial — that IS the reference order; 2-thread and 4-thread runs
// must (and do, see the diff harness) reproduce its output byte for byte. A
// one-shard run — every Simulation's default kernel — is the windowed loop
// with one worker: no thread is spawned, the shard uses seq stream (0, 1),
// and with unbounded lookahead the whole run is one window that pops the
// queue in (time, seq) order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/time_types.h"
#include "sim/event_queue.h"

namespace harmony::sim {

class Simulation;
struct Shard;

/// The shard whose event this thread is currently dispatching (null between
/// events and on non-worker threads). Simulation::now() and the schedule
/// calls route through it, which is what keeps the whole Cluster/Client API
/// unchanged under sharding.
inline thread_local Shard* tls_current_shard = nullptr;

/// Cross-shard hand-off buffer for one (source, destination) shard pair.
/// Single-writer (the source shard's worker, during a window), single-reader
/// (the control thread, between windows) — phase separation through the
/// window handoff replaces atomics. Steady state is allocation-free: entries
/// land in a fixed slab sized at configure time; overflow spills into a
/// growable vector (counted, so benchmarks can see backpressure) rather than
/// dropping or blocking.
class Mailbox {
 public:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    TypedEvent ev;
  };
  static_assert(sizeof(Entry) == 64);

  void configure(std::uint32_t capacity) {
    capacity_ = capacity;
    // lint: allow(hot-path-alloc): one-time slab sizing at configure();
    // steady-state push() only writes into it.
    slab_ = std::make_unique<Entry[]>(capacity);
    count_ = 0;
  }

  void push(SimTime when, std::uint64_t seq, const TypedEvent& ev) {
    if (count_ < capacity_) {
      slab_[count_++] = Entry{when, seq, ev};
    } else {
      // Overflow path only (vector growth) — capacity is the steady-state
      // bound (alloc_guard-pinned); spills are counted as backpressure so
      // runs that hit this are visible.
      spill_.push_back(Entry{when, seq, ev});
      ++spills_;
    }
  }

  /// Drain every entry into `q` (stamped: seqs were allocated by the
  /// sender). Called by the control thread between windows.
  void drain_into(EventQueue& q) {
    for (std::uint32_t i = 0; i < count_; ++i) {
      q.push_typed_stamped(slab_[i].when, slab_[i].seq, slab_[i].ev);
    }
    count_ = 0;
    for (const Entry& e : spill_) q.push_typed_stamped(e.when, e.seq, e.ev);
    spill_.clear();
  }

  bool empty() const { return count_ == 0 && spill_.empty(); }
  std::uint64_t spills() const { return spills_; }

 private:
  std::unique_ptr<Entry[]> slab_;
  std::vector<Entry> spill_;
  std::uint32_t capacity_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t spills_ = 0;
};

/// One event shard: a queue, a clock, and the id the cluster layer uses to
/// route. All fields are owned by exactly one thread at any time (the
/// worker assigned to this shard during a window; the control thread
/// otherwise) — the window handoff transfers ownership.
struct Shard {
  EventQueue queue;
  SimTime now = 0;
  std::uint64_t current_seq = 0;  ///< seq of the event being dispatched
  std::uint64_t events_processed = 0;
  std::uint32_t id = 0;
};

/// Called by the control thread at every window barrier (and once after the
/// run drains), with all events strictly before `safe_time` executed. The
/// cluster layer applies its deferred per-shard oracle logs here.
using BarrierHook = void (*)(void* ctx, SimTime safe_time);

/// The windowed executor. Owned by Simulation: its constructor builds the
/// default one-shard instance, and configure_shards() replaces it.
class ShardSet {
 public:
  ShardSet(Simulation& sim, std::uint32_t count, SimDuration lookahead,
           unsigned num_threads, std::uint32_t mailbox_capacity);

  std::uint32_t count() const { return static_cast<std::uint32_t>(shards_.size()); }
  Shard& shard(std::uint32_t i) { return *shards_[i]; }
  unsigned num_threads() const { return num_threads_; }
  SimDuration lookahead() const { return lookahead_; }

  /// Route one typed event. `from` is the scheduling shard (whose queue
  /// allocates the seq); `ev.shard` names the destination.
  void route_event(Shard& from, SimTime when, const TypedEvent& ev) {
    const std::uint64_t seq = from.queue.alloc_seq();
    Shard& dest = *shards_[ev.shard];
    if (&dest != &from) {
      // Mid-window cross-shard send: the lookahead bound must hold, or the
      // destination could have already run past `when` — a determinism bug
      // at the schedule site, not something to paper over. Merged-serial
      // windows check it too, so a run that passes at one thread passes at
      // all of them. window_end_ is 0 outside windows (set-up, fence
      // instants, hooks).
      HARMONY_CHECK_MSG(when >= window_end_,
                        "cross-shard event inside the lookahead window");
      if (parallel_phase_) {
        mailbox(from.id, dest.id).push(when, seq, ev);
        return;
      }
    }
    dest.queue.push_typed_stamped(when, seq, ev);
  }

  /// Fault instants (and any other cross-shard-state mutation) must execute
  /// merged-serial: no window will span `t`. Setup-time / fence-time only.
  void register_fence(SimTime t);

  void set_barrier_hook(BarrierHook hook, void* ctx) {
    barrier_hook_ = hook;
    barrier_ctx_ = ctx;
  }

  /// Run until every queue drains or `horizon` passes. Merged-serial when
  /// num_threads == 1 and count() > 1, windowed otherwise (one worker on the
  /// calling thread for a single shard); identical output either way.
  /// Returns the final simulation time: the horizon if events remain past
  /// it, else the latest shard clock, never earlier than the last run's end.
  SimTime run(SimTime horizon);

  std::uint64_t events_processed() const;
  std::uint64_t mailbox_spills() const;
  /// Windows executed so far, fence instants included. A function of the
  /// schedule alone: equal at every thread count.
  std::uint64_t windows() const { return windows_; }
  bool idle() const;

 private:
  friend class Simulation;

  /// One side of the window handoff: a counter that threads wait on by
  /// spinning, then parking in std::atomic::wait. `parked` counts the
  /// parked waiters, so a writer makes the notify syscall only when one
  /// exists. Own cache line: waiters spin on `value` without sharing a line
  /// with the other word.
  struct alignas(64) HandoffWord {
    std::atomic<std::uint32_t> value{0};
    std::atomic<std::uint32_t> parked{0};
  };
  /// Wait until done(w.value): pause-spin (if `spin`), yield, then park;
  /// see shard.cpp.
  template <typename Done>
  static std::uint32_t await(HandoffWord& w, bool spin, Done done);
  static void wake(HandoffWord& w);

  Mailbox& mailbox(std::uint32_t src, std::uint32_t dst) {
    return mailboxes_[src * count() + dst];
  }

  /// Run events from all shards in strict (time, seq) order while their time
  /// is <= `instant_end`; stops when the next event is later. This is both
  /// the single-thread execution mode and the fence-instant mode.
  void run_merged_serial(SimTime instant_end);

  /// One worker's share of a parallel window: run every shard s with
  /// s % num_workers == worker to just before window_end_.
  void run_window_slice(unsigned worker);

  void drain_mailboxes();
  /// Earliest pending (when, seq) across all shards; false when drained.
  bool peek_global(SimTime& when, std::uint64_t& seq, std::uint32_t& which) const;

  Simulation& sim_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Mailbox> mailboxes_;  // count*count, row = source shard
  std::vector<SimTime> fences_;     // sorted ascending
  SimDuration lookahead_;
  unsigned num_threads_;
  BarrierHook barrier_hook_ = nullptr;
  void* barrier_ctx_ = nullptr;

  // Window state. The control thread writes it, then publishes the window
  // by bumping epoch_ (seq_cst, so also a release); a worker reads it only
  // after seeing the new epoch (acquire). Each worker bumps arrived_ when
  // its slice is done, and the control thread touches shard state again
  // only after seeing all of them (acquire). Both sides spin, then park:
  // workers on epoch_ while the control thread drains mailboxes and runs
  // the barrier hook, the control thread on arrived_ while the slowest
  // worker finishes.
  SimTime window_end_ = 0;
  bool parallel_phase_ = false;
  bool done_ = false;
  std::uint64_t windows_ = 0;
  HandoffWord epoch_;
  HandoffWord arrived_;
};

}  // namespace harmony::sim
