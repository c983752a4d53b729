// Deterministic discrete-event simulation kernel.
//
// One kernel: every Simulation runs its events on a ShardSet (see
// sim/shard.h). By default that is one shard with unbounded lookahead, so a
// run is a single window executed on the calling thread in (time, seq)
// order — determinism is what lets every experiment in the reproduction be
// replayed from a seed. Parallelism happens either one level up (independent
// Simulation instances on a thread pool) or — for one big scenario — *inside*
// the run via configure_shards(): per-shard event queues executed in
// conservative lookahead windows that reproduce the serial (time, seq) order
// bit for bit.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "sim/event_queue.h"
#include "sim/shard.h"

namespace harmony::sim {

class Simulation {
 public:
  static constexpr std::uint32_t kDefaultMailboxCapacity = 4096;

  /// Starts on the default kernel: one shard, unbounded lookahead, run on
  /// the calling thread.
  explicit Simulation(std::uint64_t seed = 1)
      : master_rng_(seed),
        seed_(seed),
        // lint: allow(hot-path-alloc): one-time kernel construction; the run
        // loop only reads through the pointer.
        shards_(std::make_unique<ShardSet>(
            *this, 1, std::numeric_limits<SimDuration>::max(), 1,
            kDefaultMailboxCapacity)) {}

  // The ShardSet keeps a reference back to its Simulation.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time: the clock of the shard whose event is being
  /// dispatched on this thread (each handler sees exactly the time it would
  /// see in the serial merge), and the last run's end time between runs.
  SimTime now() const {
    if (const Shard* s = tls_current_shard) return s->now;
    return now_;
  }
  std::uint64_t seed() const { return seed_; }

  // ---- shards --------------------------------------------------------------

  /// Replace the default one-shard kernel with `count` event shards run by
  /// `num_threads` workers (1 = merged-serial reference order; >1 must and
  /// does reproduce it bit for bit). `lookahead` is the minimum cross-shard
  /// event delay the schedule sites guarantee (the cluster layer derives it
  /// from the minimum cross-DC link latency). Call before anything is
  /// scheduled.
  void configure_shards(std::uint32_t count, SimDuration lookahead,
                        unsigned num_threads,
                        std::uint32_t mailbox_capacity = kDefaultMailboxCapacity) {
    HARMONY_CHECK_MSG(idle() && now_ == 0,
                      "configure_shards() must precede all scheduling");
    // lint: allow(hot-path-alloc): one-time setup (guarded above: nothing
    // scheduled yet); the run loop only reads through the pointer.
    shards_ = std::make_unique<ShardSet>(*this, count, lookahead, num_threads,
                                         mailbox_capacity);
  }

  /// Grouped variant: one entry per shard *group* (the cluster layer passes
  /// one group per DC), each splitting into that many key-range shards. The
  /// total shard count is the sum; group g's shards are the contiguous id
  /// range [sum(plan[0..g)), sum(plan[0..g])). The plan is recorded and
  /// exposed via shard_plan() so the cluster layer can derive key-range →
  /// shard ownership from the same source of truth. `lookahead` must be the
  /// minimum cross-shard delay across *all* shard pairs — with any group
  /// split past 1 that includes intra-group (intra-DC) hops, so the caller
  /// floors it at the intra-DC latency floor too, not just cross-DC.
  void configure_shards(const std::vector<std::uint32_t>& group_shards,
                        SimDuration lookahead, unsigned num_threads,
                        std::uint32_t mailbox_capacity = kDefaultMailboxCapacity) {
    std::uint32_t total = 0;
    for (const std::uint32_t s : group_shards) {
      HARMONY_CHECK_MSG(s >= 1, "every shard group needs >= 1 shard");
      total += s;
    }
    configure_shards(total, lookahead, num_threads, mailbox_capacity);
    shard_plan_ = group_shards;
  }

  /// The per-group shard counts passed to the grouped configure_shards
  /// overload; empty for the default kernel and for the flat overload
  /// (where every group implicitly has exactly one shard).
  const std::vector<std::uint32_t>& shard_plan() const { return shard_plan_; }

  std::uint32_t shard_count() const { return shards_->count(); }
  SimDuration lookahead() const { return shards_->lookahead(); }

  /// The shard this thread is currently executing for: the dispatching
  /// shard inside an event, the setup shard (set_setup_shard) outside one.
  std::uint32_t current_shard() const {
    const Shard* s = tls_current_shard;
    return s != nullptr ? s->id : setup_shard_;
  }

  /// Global sequence number of the event being dispatched (0 outside
  /// events; the cluster layer orders its deferred oracle log with it).
  std::uint64_t current_seq() const {
    const Shard* s = tls_current_shard;
    return s != nullptr ? s->current_seq : 0;
  }

  /// Setup-time scheduling (harness closures, client start staggers) books
  /// events — and draws seqs — against this shard until events start
  /// running.
  void set_setup_shard(std::uint32_t s) {
    HARMONY_CHECK(s < shards_->count());
    setup_shard_ = s;
  }

  /// See ShardSet::register_fence: instants that mutate cross-shard state
  /// (fault injection) must be fenced.
  void register_fence(SimTime t) { shards_->register_fence(t); }

  /// See sim/shard.h BarrierHook.
  void set_barrier_hook(BarrierHook hook, void* ctx) {
    shards_->set_barrier_hook(hook, ctx);
  }

  std::uint64_t mailbox_spills() const { return shards_->mailbox_spills(); }

  /// See ShardSet::windows.
  std::uint64_t shard_windows() const { return shards_->windows(); }

  /// Master RNG; entities should fork substreams at construction time.
  Rng& rng() { return master_rng_; }
  Rng fork_rng(std::uint64_t salt) { return master_rng_.fork(salt); }

  /// Schedule fn at now()+delay (delay < 0 is clamped to 0). Closures never
  /// cross shards: the event books into the scheduling shard's own queue
  /// (timeouts, delivery callbacks and timers are all shard-local by
  /// construction).
  EventHandle schedule(SimDuration delay, EventFn fn) {
    if (delay < 0) delay = 0;
    return here().queue.push(now() + delay, std::move(fn));
  }

  /// Schedule fn at absolute time t (>= now()).
  EventHandle schedule_at(SimTime t, EventFn fn) {
    HARMONY_CHECK_MSG(t >= now(), "cannot schedule into the past");
    return here().queue.push(t, std::move(fn));
  }

  // ---- typed hot lane ------------------------------------------------------
  // Fixed-shape POD events dispatched through the domain's registered
  // EventDispatchFn (see sim/event.h). Non-cancellable, so no handle.

  /// Schedule a typed event at now()+delay (delay < 0 is clamped to 0).
  /// ev.shard names the destination shard; the seq is drawn from the
  /// *scheduling* shard's stream (see sim/shard.h).
  void schedule_event(SimDuration delay, const TypedEvent& ev) {
    if (delay < 0) delay = 0;
    shards_->route_event(here(), now() + delay, ev);
  }

  /// Schedule a typed event at absolute time t (>= now()).
  void schedule_event_at(SimTime t, const TypedEvent& ev) {
    HARMONY_CHECK_MSG(t >= now(), "cannot schedule into the past");
    shards_->route_event(here(), t, ev);
  }

  /// Register the dispatcher for one event domain (idempotent; subsystems
  /// re-register freely — all instances of a domain share one function).
  void set_event_dispatcher(EventDomain domain, EventDispatchFn fn) {
    dispatchers_[static_cast<std::size_t>(domain)] = fn;
  }

  /// Run until every queue drains or `horizon` passes (events at t > horizon
  /// stay queued; now() is advanced to horizon if it was reached).
  void run_until(SimTime horizon) { now_ = shards_->run(horizon); }

  /// Run until every queue drains.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  std::uint64_t events_processed() const { return shards_->events_processed(); }
  bool idle() const { return shards_->idle(); }

 private:
  friend class ShardSet;

  /// The shard this thread schedules into: the dispatching shard inside an
  /// event, the setup shard outside one.
  Shard& here() {
    Shard* s = tls_current_shard;
    return s != nullptr ? *s : shards_->shard(setup_shard_);
  }

  void dispatch(const TypedEvent& ev) {
    const EventDispatchFn fn = dispatchers_[event_domain_index(ev.kind)];
    HARMONY_CHECK_MSG(fn != nullptr,
                      "typed event fired with no dispatcher for its domain");
    fn(ev);
  }

  SimTime now_ = 0;
  Rng master_rng_;
  std::uint64_t seed_;
  std::uint32_t setup_shard_ = 0;
  EventDispatchFn dispatchers_[kEventDomains] = {};
  std::unique_ptr<ShardSet> shards_;
  std::vector<std::uint32_t> shard_plan_;
};

/// Repeating timer helper: schedules fn every `period` until cancelled or the
/// owner Simulation drains. fn sees the tick time via sim.now(). stop() and
/// start() are safe from inside the callback itself: each tick runs a
/// moved-out copy of the callable (so start() may replace fn_ mid-tick) and
/// carries its start()-epoch (so a restart orphans the old cadence instead
/// of double-arming).
class PeriodicTimer {
 public:
  PeriodicTimer() = default;

  void start(Simulation& simulation, SimDuration period, EventFn fn) {
    HARMONY_CHECK(period > 0);
    stop();
    sim_ = &simulation;
    period_ = period;
    fn_ = std::move(fn);
    ++epoch_;
    arm();
  }

  void stop() {
    handle_.cancel();
    sim_ = nullptr;
  }

  bool running() const { return sim_ != nullptr; }

 private:
  void arm() {
    handle_ = sim_->schedule(period_, [this, epoch = epoch_] { fire(epoch); });
  }

  void fire(std::uint64_t epoch) {
    if (sim_ == nullptr || epoch != epoch_) return;
    EventFn fn = std::move(fn_);  // this tick owns the callable while it runs
    fn();
    if (sim_ != nullptr && epoch == epoch_) {  // neither stopped nor restarted
      fn_ = std::move(fn);
      arm();
    }
  }

  Simulation* sim_ = nullptr;
  SimDuration period_ = 0;
  std::uint64_t epoch_ = 0;
  EventFn fn_;
  EventHandle handle_;
};

}  // namespace harmony::sim
