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
//      rides a fixed-capacity mailbox that the destination's worker drains
//      into its own queue when the next window opens. Pop order depends
//      only on (time, seq) — a wheel slot keeps its events sorted by seq —
//      so drain order is irrelevant.
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
#include <limits>
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

/// Cross-shard hand-off buffer: one parity half of a (source, destination)
/// shard pair. Each pair has two halves, and windows alternate between
/// them. The writer of a half is the source shard's worker during window N.
/// Its reader is the destination shard's worker at the start of window N+1,
/// or the control thread at a fence instant and at the end of a run. The
/// window handoff orders the two phases, so a half needs no atomics. Steady
/// state is allocation-free: entries land in a fixed slab sized at
/// configure time; overflow spills into a growable vector (counted, so
/// benchmarks can see backpressure) rather than dropping or blocking. Own
/// cache line: a pair's two halves are written by different threads in the
/// same window.
class alignas(64) Mailbox {
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
  /// sender).
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
  /// Earliest `when` this shard pushed into a mailbox during the current
  /// window (max() if none). The control thread reads and resets it between
  /// windows, so it can open the next window without scanning mailboxes.
  SimTime outbox_min = std::numeric_limits<SimTime>::max();
  std::uint32_t id = 0;
};

/// The barrier hook, in two halves. `seal` runs on the control thread at
/// every window barrier, at every fence instant's end and once after the
/// run drains, with all events strictly before `safe_time` executed and the
/// workers waiting; it must be O(1) (the cluster layer flips its per-shard
/// oracle/monitor log buffers). `replay` consumes what the last seal
/// sealed. The control thread runs it after its own slice of the next
/// window, while the workers run theirs, and before any fence instant and
/// before run() returns. With K > 1 shards and one thread, each seal is
/// followed by its replay at once.
using BarrierHook = void (*)(void* ctx, SimTime safe_time);
using ReplayHook = void (*)(void* ctx);

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
        mailbox(fill_half_, from.id, dest.id).push(when, seq, ev);
        if (when < from.outbox_min) from.outbox_min = when;
        return;
      }
    }
    dest.queue.push_typed_stamped(when, seq, ev);
  }

  /// Fault instants (and any other cross-shard-state mutation) must execute
  /// merged-serial: no window will span `t`. Setup-time / fence-time only.
  void register_fence(SimTime t);

  /// See BarrierHook. `replay` may be null: then `seal` is the whole hook.
  void set_barrier_hook(BarrierHook seal, void* ctx,
                        ReplayHook replay = nullptr) {
    seal_ = seal;
    replay_ = replay;
    hook_ctx_ = ctx;
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

  Mailbox& mailbox(std::uint32_t half, std::uint32_t src, std::uint32_t dst) {
    return mailboxes_[(half * count() + src) * count() + dst];
  }

  /// Run events from all shards in strict (time, seq) order while their time
  /// is <= `instant_end`; stops when the next event is later. This is both
  /// the single-thread execution mode and the fence-instant mode.
  void run_merged_serial(SimTime instant_end);

  /// One worker's share of a parallel window: for every shard s with
  /// s % num_workers == worker, drain s's inbox (the half the previous
  /// window filled), then run s to just before window_end_.
  void run_window_slice(unsigned worker);

  /// Drain the half the last window filled into every destination queue.
  /// Control thread, between windows only.
  void drain_pending();
  /// Earliest pending (when, seq) across all shards; false when drained.
  bool peek_global(SimTime& when, std::uint64_t& seq, std::uint32_t& which) const;
  /// Where the next window opens: the earliest queue head or undrained
  /// mailbox entry; false when both are empty.
  bool next_window_start(SimTime& when) const;

  Simulation& sim_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// 2*count*count: [half][source][destination].
  std::vector<Mailbox> mailboxes_;
  std::vector<SimTime> fences_;     // sorted ascending
  SimDuration lookahead_;
  unsigned num_threads_;
  BarrierHook seal_ = nullptr;
  ReplayHook replay_ = nullptr;
  void* hook_ctx_ = nullptr;

  // Window state. The control thread writes it, then publishes the window
  // by bumping epoch_ (seq_cst, so also a release); a worker reads it only
  // after seeing the new epoch (acquire). Each worker bumps arrived_ when
  // its slice is done, and the control thread touches shard state again
  // only after seeing all of them (acquire). Both sides spin, then park:
  // workers on epoch_ while the control thread seals the logs (or runs a
  // fence instant), the control thread on arrived_ while the slowest
  // worker finishes.
  SimTime window_end_ = 0;
  bool parallel_phase_ = false;
  bool done_ = false;
  /// The mailbox half senders fill in the current window. Between windows
  /// it names the half the last window filled, not yet drained.
  std::uint32_t fill_half_ = 0;
  /// Earliest entry of that undrained half; max() when it is empty.
  SimTime pending_min_ = std::numeric_limits<SimTime>::max();
  std::uint64_t windows_ = 0;
  HandoffWord epoch_;
  HandoffWord arrived_;
};

}  // namespace harmony::sim
