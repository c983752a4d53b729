// Deterministic discrete-event simulation kernel.
//
// Single-threaded by default: determinism is what lets every experiment in
// the reproduction be replayed from a seed. Parallelism happens either one
// level up (independent Simulation instances on a thread pool) or — for one
// big scenario — *inside* the run via configure_shards(): per-shard event
// queues executed in conservative lookahead windows that reproduce the
// serial (time, seq) order bit for bit (see sim/shard.h).
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
  explicit Simulation(std::uint64_t seed = 1) : master_rng_(seed), seed_(seed) {}

  /// Current simulation time. Under sharded execution this is the clock of
  /// the shard whose event is being dispatched on this thread (each handler
  /// sees exactly the time it would see in the serial merge), and the last
  /// run's end time between runs.
  SimTime now() const {
    if (shards_ != nullptr) {
      if (const Shard* s = tls_current_shard) return s->now;
    }
    return now_;
  }
  std::uint64_t seed() const { return seed_; }

  // ---- sharded execution ---------------------------------------------------

  static constexpr std::uint32_t kDefaultMailboxCapacity = 4096;

  /// Partition this simulation into `count` event shards run by
  /// `num_threads` workers (1 = merged-serial reference order; >1 must and
  /// does reproduce it bit for bit). `lookahead` is the minimum cross-shard
  /// event delay the schedule sites guarantee (the cluster layer derives it
  /// from the minimum cross-DC link latency). Call once, before anything is
  /// scheduled; the typed lane must stay enabled (closures cannot cross
  /// shards). Serial unsharded execution remains the default.
  void configure_shards(std::uint32_t count, SimDuration lookahead,
                        unsigned num_threads,
                        std::uint32_t mailbox_capacity = kDefaultMailboxCapacity) {
    HARMONY_CHECK_MSG(shards_ == nullptr, "shards are already configured");
    HARMONY_CHECK_MSG(queue_.empty() && now_ == 0,
                      "configure_shards() must precede all scheduling");
    HARMONY_CHECK_MSG(typed_lane_, "sharded execution requires the typed lane");
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
  /// overload; empty for unsharded runs and for the flat overload (where
  /// every group implicitly has exactly one shard).
  const std::vector<std::uint32_t>& shard_plan() const { return shard_plan_; }

  bool sharded() const { return shards_ != nullptr; }
  std::uint32_t shard_count() const { return shards_ ? shards_->count() : 1; }
  SimDuration lookahead() const { return shards_ ? shards_->lookahead() : 0; }

  /// The shard this thread is currently executing for: the dispatching
  /// shard inside an event, the setup shard (set_setup_shard) outside one.
  std::uint32_t current_shard() const {
    if (shards_ == nullptr) return 0;
    const Shard* s = tls_current_shard;
    return s != nullptr ? s->id : setup_shard_;
  }

  /// Global sequence number of the event being dispatched (sharded runs
  /// only; the cluster layer orders its deferred oracle log with it).
  std::uint64_t current_seq() const {
    const Shard* s = tls_current_shard;
    return s != nullptr ? s->current_seq : 0;
  }

  /// Setup-time scheduling (harness closures, client start staggers) books
  /// events — and draws seqs — against this shard until events start
  /// running. No-op when unsharded.
  void set_setup_shard(std::uint32_t s) {
    HARMONY_CHECK(shards_ == nullptr || s < shards_->count());
    setup_shard_ = s;
  }

  /// See ShardSet::register_fence: instants that mutate cross-shard state
  /// (fault injection) must be fenced. No-op when unsharded.
  void register_fence(SimTime t) {
    if (shards_ != nullptr) shards_->register_fence(t);
  }

  /// See sim/shard.h BarrierHook. No-op when unsharded.
  void set_barrier_hook(BarrierHook hook, void* ctx) {
    if (shards_ != nullptr) shards_->set_barrier_hook(hook, ctx);
  }

  std::uint64_t mailbox_spills() const {
    return shards_ ? shards_->mailbox_spills() : 0;
  }

  /// See ShardSet::windows. 0 when unsharded.
  std::uint64_t shard_windows() const {
    return shards_ ? shards_->windows() : 0;
  }

  /// Master RNG; entities should fork substreams at construction time.
  Rng& rng() { return master_rng_; }
  Rng fork_rng(std::uint64_t salt) { return master_rng_.fork(salt); }

  /// Schedule fn at now()+delay (delay < 0 is clamped to 0). Closures never
  /// cross shards: under sharding the event books into the scheduling
  /// shard's own queue (timeouts, delivery callbacks and timers are all
  /// shard-local by construction).
  EventHandle schedule(SimDuration delay, EventFn fn) {
    if (delay < 0) delay = 0;
    return active_queue().push(now() + delay, std::move(fn));
  }

  /// Schedule fn at absolute time t (>= now()).
  EventHandle schedule_at(SimTime t, EventFn fn) {
    HARMONY_CHECK_MSG(t >= now(), "cannot schedule into the past");
    return active_queue().push(t, std::move(fn));
  }

  // ---- typed hot lane ------------------------------------------------------
  // Fixed-shape POD events dispatched through the domain's registered
  // EventDispatchFn (see sim/event.h). Non-cancellable, so no handle. With
  // the typed lane disabled (set_typed_lane(false)) the same event rides the
  // closure lane wrapped in a capture that calls the identical dispatcher —
  // the diff harness and BM_TypedVsErasedDispatch compare the two lanes.

  /// Schedule a typed event at now()+delay (delay < 0 is clamped to 0).
  /// Under sharding, ev.shard names the destination shard; the seq is drawn
  /// from the *scheduling* shard's stream (see sim/shard.h).
  void schedule_event(SimDuration delay, const TypedEvent& ev) {
    if (delay < 0) delay = 0;
    push_event(now() + delay, ev);
  }

  /// Schedule a typed event at absolute time t (>= now()).
  void schedule_event_at(SimTime t, const TypedEvent& ev) {
    HARMONY_CHECK_MSG(t >= now(), "cannot schedule into the past");
    push_event(t, ev);
  }

  /// Register the dispatcher for one event domain (idempotent; subsystems
  /// re-register freely — all instances of a domain share one function).
  void set_event_dispatcher(EventDomain domain, EventDispatchFn fn) {
    dispatchers_[static_cast<std::size_t>(domain)] = fn;
  }

  /// Route schedule_event through the closure lane instead (differential
  /// testing / benchmarking; behavior is bit-identical either way).
  void set_typed_lane(bool enabled) { typed_lane_ = enabled; }
  bool typed_lane() const { return typed_lane_; }

  /// Run one event; returns false if the queue was empty. Unsharded only.
  bool step();

  /// Run until the queue drains or `horizon` passes (events at t > horizon
  /// stay queued; now() is advanced to horizon if it was reached). Under
  /// sharding this runs the windowed executor (stop() has no effect there —
  /// bound the run with the horizon instead).
  void run_until(SimTime horizon);

  /// Run until the queue drains or stop() is called.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Stop after the current event returns (usable from inside callbacks).
  void stop() { stopping_ = true; }

  std::uint64_t events_processed() const {
    return shards_ ? shards_->events_processed() : events_processed_;
  }
  bool idle() const { return shards_ ? shards_->idle() : queue_.empty(); }

 private:
  friend class ShardSet;

  EventQueue& active_queue() {
    if (shards_ != nullptr) return shards_->shard(current_shard()).queue;
    return queue_;
  }

  void push_event(SimTime when, const TypedEvent& ev) {
    if (shards_ != nullptr) {
      shards_->route_event(shards_->shard(current_shard()), when, ev);
      return;
    }
    if (typed_lane_) {
      queue_.push_typed(when, ev);
    } else {
      queue_.push(when, [this, ev] { dispatch(ev); });
    }
  }

  void dispatch(const TypedEvent& ev) {
    const EventDispatchFn fn = dispatchers_[event_domain_index(ev.kind)];
    HARMONY_CHECK_MSG(fn != nullptr,
                      "typed event fired with no dispatcher for its domain");
    fn(ev);
  }

  /// Pop+run the earliest event at or before `horizon` (both lanes).
  EventQueue::PopResult run_one(SimTime horizon);

  SimTime now_ = 0;
  EventQueue queue_;
  Rng master_rng_;
  std::uint64_t seed_;
  std::uint64_t events_processed_ = 0;
  std::uint32_t setup_shard_ = 0;
  bool stopping_ = false;
  bool typed_lane_ = true;
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
