#include "sim/shard.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "common/first_error.h"
#include "common/threads.h"
#include "sim/simulation.h"

namespace harmony::sim {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// How a handoff waiter waits before it parks in std::atomic::wait. It
/// first spins kPauseSpins `pause` iterations (~9 us on a 4-vCPU Xeon guest,
/// where a pause is ~17 ns). That covers ~97% of the waits on a key-range
/// sharded run, whose windows hand off every few microseconds, so the steady
/// state makes no syscall. Then it yields its CPU up to kYieldSpins times,
/// so that a thread it waits for can run if the two share a CPU (under load
/// from other processes). A wait that outlasts both is on a long barrier
/// hook or a descheduled thread, and parks.
constexpr int kPauseSpins = 512;
constexpr int kYieldSpins = 64;

SimTime saturating_add(SimTime t, SimDuration d) {
  return (t > kNever - d) ? kNever : t + d;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

/// Wait until `done(w.value)` holds; returns the value that satisfied it.
/// Parking is a Dekker handshake with wake(): the waiter bumps `parked`,
/// then re-reads `value`; the waker bumps `value`, then reads `parked`.
/// Both are seq_cst, so at least one side sees the other's write: either
/// the waiter never sleeps or the waker notifies it.
template <typename Done>
std::uint32_t ShardSet::await(HandoffWord& w, bool spin, Done done) {
  for (int i = spin ? 0 : kPauseSpins; i < kPauseSpins + kYieldSpins; ++i) {
    const std::uint32_t v = w.value.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (i < kPauseSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  w.parked.fetch_add(1, std::memory_order_seq_cst);
  std::uint32_t v = w.value.load(std::memory_order_seq_cst);
  while (!done(v)) {
    w.value.wait(v, std::memory_order_acquire);
    v = w.value.load(std::memory_order_seq_cst);
  }
  w.parked.fetch_sub(1, std::memory_order_relaxed);
  return v;
}

void ShardSet::wake(HandoffWord& w) {
  w.value.fetch_add(1, std::memory_order_seq_cst);
  if (w.parked.load(std::memory_order_seq_cst) != 0) w.value.notify_all();
}

ShardSet::ShardSet(Simulation& sim, std::uint32_t count, SimDuration lookahead,
                   unsigned num_threads, std::uint32_t mailbox_capacity)
    : sim_(sim), lookahead_(lookahead), num_threads_(num_threads) {
  HARMONY_CHECK(count >= 1 && count <= 255);  // TypedEvent::shard is a u8
  HARMONY_CHECK_MSG(lookahead > 0, "conservative lookahead must be positive");
  HARMONY_CHECK(num_threads >= 1);
  shards_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // lint: allow(hot-path-alloc): construction-time shard array; the run
    // loop only indexes it.
    auto sh = std::make_unique<Shard>();
    sh->id = i;
    // Interleaved streams: shard i draws seqs i, i+K, i+2K, ... With K == 1
    // this is the plain (0, 1) stream.
    sh->queue.set_seq_stream(i, count);
    shards_.push_back(std::move(sh));
  }
  // `mailbox_capacity` is entries per (source, destination) pair, split
  // across the pair's two halves: the slab bytes do not depend on the
  // halving.
  mailboxes_.resize(2 * static_cast<std::size_t>(count) * count);
  for (std::uint32_t h = 0; h < 2; ++h) {
    for (std::uint32_t s = 0; s < count; ++s) {
      for (std::uint32_t d = 0; d < count; ++d) {
        if (s != d) mailbox(h, s, d).configure(mailbox_capacity / 2);
      }
    }
  }
}

void ShardSet::register_fence(SimTime t) {
  HARMONY_CHECK_MSG(!parallel_phase_,
                    "fences cannot be registered from inside a window");
  fences_.insert(std::lower_bound(fences_.begin(), fences_.end(), t), t);
}

bool ShardSet::peek_global(SimTime& when, std::uint64_t& seq,
                           std::uint32_t& which) const {
  bool any = false;
  for (const auto& sh : shards_) {
    SimTime w;
    std::uint64_t s;
    if (!sh->queue.peek_next(w, s)) continue;
    if (!any || w < when || (w == when && s < seq)) {
      when = w;
      seq = s;
      which = sh->id;
      any = true;
    }
  }
  return any;
}

bool ShardSet::next_window_start(SimTime& when) const {
  std::uint64_t seq;
  std::uint32_t which;
  const bool queued = peek_global(when, seq, which);
  if (pending_min_ == kNever) return queued;
  when = queued ? std::min(when, pending_min_) : pending_min_;
  return true;
}

namespace {
/// Scoped "this thread is executing shard s" marker; Simulation::now() and
/// the schedule calls route through it.
struct TlsShardScope {
  explicit TlsShardScope(Shard& s) { tls_current_shard = &s; }
  ~TlsShardScope() { tls_current_shard = nullptr; }
};

/// Run every event of `sh` with time <= bound, in (time, seq) order.
template <typename DispatchOwner>
void run_shard_until(Shard& sh, SimTime bound, DispatchOwner&& dispatch) {
  TlsShardScope scope(sh);
  while (sh.queue.run_before(
             bound,
             [&sh](SimTime when, std::uint64_t seq) {
               HARMONY_CHECK_MSG(when >= sh.now, "shard clock went backwards");
               sh.now = when;
               sh.current_seq = seq;
               ++sh.events_processed;
             },
             dispatch) == EventQueue::PopResult::kEvent) {
  }
}
}  // namespace

void ShardSet::run_merged_serial(SimTime instant_end) {
  const auto dispatch = [this](const TypedEvent& ev) { sim_.dispatch(ev); };
  SimTime when;
  std::uint64_t seq;
  std::uint32_t which;
  while (peek_global(when, seq, which) && when <= instant_end) {
    Shard& sh = *shards_[which];
    TlsShardScope scope(sh);
    // Exactly one event: the horizon `when` admits only the global head
    // (plus same-instant followers it may schedule, which the next peek
    // re-orders against all shards).
    const auto r = sh.queue.run_before(
        when,
        [&sh](SimTime w, std::uint64_t s) {
          HARMONY_CHECK_MSG(w >= sh.now, "shard clock went backwards");
          sh.now = w;
          sh.current_seq = s;
          ++sh.events_processed;
        },
        dispatch);
    HARMONY_CHECK(r == EventQueue::PopResult::kEvent);
  }
}

void ShardSet::run_window_slice(unsigned worker) {
  const auto dispatch = [this](const TypedEvent& ev) { sim_.dispatch(ev); };
  const unsigned stride = std::min<unsigned>(num_threads_, count());
  // Senders fill fill_half_ in this window; the other half holds what the
  // previous window sent, all of it dated at or past this window's start.
  const std::uint32_t inbox = fill_half_ ^ 1;
  for (std::uint32_t s = worker; s < count(); s += stride) {
    Shard& sh = *shards_[s];
    for (std::uint32_t src = 0; src < count(); ++src) {
      if (src != s) mailbox(inbox, src, s).drain_into(sh.queue);
    }
    // The window is [start, window_end_): run_before's horizon is inclusive.
    run_shard_until(sh, window_end_ - 1, dispatch);
  }
}

void ShardSet::drain_pending() {
  if (pending_min_ == kNever) return;
  for (std::uint32_t src = 0; src < count(); ++src) {
    for (std::uint32_t dst = 0; dst < count(); ++dst) {
      if (src != dst) {
        mailbox(fill_half_, src, dst).drain_into(shards_[dst]->queue);
      }
    }
  }
  pending_min_ = kNever;
}

SimTime ShardSet::run(SimTime horizon) {
  SimTime when;
  std::uint64_t seq;
  std::uint32_t which;

  // A barrier whose replay runs at once: merged-serial windows, fence
  // instants, and the end of the run.
  const auto barrier = [this](SimTime safe) {
    if (seal_ == nullptr) return;
    seal_(hook_ctx_, safe);
    if (replay_ != nullptr) replay_(hook_ctx_);
  };
  const auto final_time = [this, horizon]() {
    // The clock lands on the last executed event when drained, on the
    // horizon when events remain beyond it. It never moves backwards: a run
    // that finds only cancelled events keeps the previous run's end.
    SimTime end = sim_.now_;
    for (const auto& sh : shards_) end = std::max(end, sh->now);
    return idle() ? end : horizon;
  };

  if (num_threads_ <= 1 && count() > 1) {
    // Serial reference mode: strict global (time, seq) order, windowed only
    // to bound the deferred-work buffers. Mailboxes stay unused. Fences are
    // honored exactly like the parallel branch — every instant already runs
    // serial, but barrier consumers (the deferred oracle/monitor logs, policy
    // ticks at fences) must see the identical seal(safe) sequence in both
    // modes so a fenced handler observes the same applied-prefix of deferred
    // state.
    while (peek_global(when, seq, which)) {
      if (when > horizon) break;
      ++windows_;
      const auto fence =
          std::lower_bound(fences_.begin(), fences_.end(), when);
      if (fence != fences_.end() && *fence == when) {
        run_merged_serial(when);
        barrier(saturating_add(when, 1));
        continue;
      }
      SimTime bound = std::min(horizon, saturating_add(when, lookahead_ - 1));
      if (fence != fences_.end() && *fence - 1 < bound) bound = *fence - 1;
      const SimTime wend = saturating_add(bound, 1);
      window_end_ = wend;
      run_merged_serial(bound);
      window_end_ = 0;
      barrier(wend);
    }
    barrier(kNever);
    return final_time();
  }

  // Windows. Per window the control thread publishes (window_end_,
  // parallel_phase_, fill_half_, then wake(epoch_)), runs slice 0, replays
  // the batch the previous barrier sealed, and waits for the other workers'
  // arrivals; then, while they wait for the next epoch, it seals this
  // window's logs. Each worker drains its own shards' inboxes at the start
  // of its slice. A check that fails on any thread is captured, the workers
  // are released and joined, and it is rethrown here — never left to unwind
  // past a joinable thread. A single shard runs here as one worker on this
  // thread and spawns nothing.
  const unsigned workers = std::min<unsigned>(num_threads_, count());
  // More threads than CPUs: the thread a waiter spins for is often not
  // running, and a pause spin only delays it. Go straight to yielding. A
  // lone worker never waits, so it skips the affinity syscall.
  const bool spin = workers > 1 && workers <= usable_cpus();
  const std::uint32_t first_epoch = epoch_.value.load(std::memory_order_relaxed);
  FirstError error;
  // Work the control thread does inside a window is captured like a slice,
  // so the window's handoff completes.
  const auto capture = [&error](auto&& work) {
    try {
      work();
    } catch (...) {
      error.capture(std::current_exception());
    }
  };
  const auto run_slice = [this, &capture](unsigned w) {
    capture([this, w] { run_window_slice(w); });
  };
  // A sealed batch whose replay has not run yet.
  bool replay_due = false;
  // Join point, between windows only: drain the undrained mailbox half and
  // replay the pending sealed batch, so every event sent so far is queued
  // and every op dated before now has reached the consumers.
  const auto join = [this, &replay_due] {
    drain_pending();
    if (replay_due) {
      replay_due = false;
      replay_(hook_ctx_);
    }
  };
  std::vector<std::thread> pool;
  done_ = false;
  try {
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back([this, &run_slice, spin, w,
                         seen = first_epoch]() mutable {
        while (true) {
          seen = await(epoch_, spin,
                       [seen](std::uint32_t e) { return e != seen; });
          if (done_) return;
          run_slice(w);
          wake(arrived_);
        }
      });
    }

    while (next_window_start(when) && when <= horizon) {
      ++windows_;
      const auto fence =
          std::lower_bound(fences_.begin(), fences_.end(), when);
      if (fence != fences_.end() && *fence == when) {
        // Fence instant: cross-shard state may be mutated, so run the whole
        // instant merged-serial on this thread (workers wait for the next
        // epoch), after the join.
        join();
        run_merged_serial(when);
        barrier(saturating_add(when, 1));
        continue;
      }
      SimTime wend = saturating_add(when, lookahead_);
      if (fence != fences_.end() && *fence < wend) wend = *fence;
      wend = std::min(wend, saturating_add(horizon, 1));
      window_end_ = wend;
      parallel_phase_ = true;
      fill_half_ ^= 1;
      arrived_.value.store(0, std::memory_order_relaxed);
      wake(epoch_);
      run_slice(0);
      if (replay_due) {
        replay_due = false;
        capture([this] { replay_(hook_ctx_); });
      }
      await(arrived_, spin,
            [n = workers - 1](std::uint32_t a) { return a == n; });
      parallel_phase_ = false;
      window_end_ = 0;
      if (error.failed()) break;
      // The workers drained the half the previous window filled; the half
      // this window filled waits for the next one. Its earliest entry is
      // the earliest of the shards' outbox minima.
      pending_min_ = kNever;
      for (const auto& sh : shards_) {
        pending_min_ = std::min(pending_min_, sh->outbox_min);
        sh->outbox_min = kNever;
      }
      if (seal_ != nullptr) {
        seal_(hook_ctx_, wend);
        replay_due = replay_ != nullptr;
      }
    }
  } catch (...) {
    error.capture(std::current_exception());
  }
  done_ = true;
  wake(epoch_);
  for (auto& t : pool) t.join();
  error.rethrow_if_failed();
  join();
  barrier(kNever);
  return final_time();
}

std::uint64_t ShardSet::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->events_processed;
  return n;
}

std::uint64_t ShardSet::mailbox_spills() const {
  std::uint64_t n = 0;
  for (const Mailbox& m : mailboxes_) n += m.spills();
  return n;
}

bool ShardSet::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->queue.empty()) return false;
  }
  for (const Mailbox& m : mailboxes_) {
    if (!m.empty()) return false;
  }
  return true;
}

}  // namespace harmony::sim
